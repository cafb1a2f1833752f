(* cntd's daemon core: an accept loop over a Unix-domain (or TCP)
   socket, one handler thread per connection, and a single global run
   mutex serialising engine execution.

   The daemon admits many connections but runs one deck at a time,
   because two things a run touches are process-wide.  The
   {!Cnt_obs.Progress} sink is one global: progress frames stream from
   a {!Cnt_obs.Progress.lines} sink installed for the duration of the
   run, and only the run mutex keeps another request's events out of
   it.  The compile-cache hit counter is one global too: a request
   reads it before and after its run, and only the mutex makes the
   difference that request's own.  A write failure on the client socket
   raises out of the sink, which is the supported cancellation path —
   the engine aborts, the daemon logs and keeps serving.

   Cross-request cache sharing happens through {!Deck_cache}: one
   canonical parsed deck per content hash, on which
   {!Cnt_spice.Mna.enable_compile_cache} (keyed on that canonical
   circuit's physical identity) shares the symbolic compilation.  See
   docs/SERVER.md. *)

open Cnt_spice
module Progress = Cnt_obs.Progress

(* ------------------------------------------------------------------ *)
(* Listen addresses                                                    *)
(* ------------------------------------------------------------------ *)

type listen =
  | Unix_path of string
  | Tcp of string * int

let listen_of_string s =
  if String.length s >= 4 && String.sub s 0 4 = "tcp:" then
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "%S: expected tcp:HOST:PORT" s)
    | Some i -> (
        let host = String.sub rest 0 i in
        let port = String.sub rest (i + 1) (String.length rest - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            if host = "" then Error (Printf.sprintf "%S: empty host" s)
            else Ok (Tcp (host, p))
        | _ -> Error (Printf.sprintf "%S: bad port %S" s port))
  else if s = "" then Error "empty listen address"
  else Ok (Unix_path s)

let listen_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  listen : listen;
  base : Engine.config;
  jobs_budget : int; (* read by nothing; kept only for cnt-bench *)
  max_request_bytes : int;
  deck_cache_entries : int;
  compile_cache_entries : int;
  verbose : bool;
}

let default_config ~listen =
  {
    listen;
    base = Engine.default_config;
    jobs_budget = 1;
    max_request_bytes = 8 * 1024 * 1024;
    deck_cache_entries = 64;
    compile_cache_entries = 64;
    verbose = false;
  }

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

exception Client_gone

type conn = {
  fd : Unix.file_descr;
  peer : string;
  write_mutex : Mutex.t;
  mutable pending : string;  (* reader bytes after the last newline *)
  mutable busy : bool;  (* a request is executing on this connection *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  decks : Deck_cache.t;
  run_mutex : Mutex.t;
  state_mutex : Mutex.t;
  mutable conns : conn list;
  mutable stopping : bool;
  mutable accept_thread : Thread.t option;
  mutable requests_served : int;
  started_at : float;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.cfg.verbose then Printf.eprintf "cntd: %s\n%!" s)
    fmt

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* Full write of [line ^ "\n"]; any socket-level failure means the
   client is gone. *)
let send_line conn line =
  locked conn.write_mutex @@ fun () ->
  let s = line ^ "\n" in
  let len = String.length s in
  let off = ref 0 in
  try
    while !off < len do
      off := !off + Unix.write_substring conn.fd s !off (len - !off)
    done
  with Unix.Unix_error (_, _, _) | Sys_error _ -> raise Client_gone

(* Chunked line reader with a byte cap: accumulates reads until a
   newline, never concatenating more than once per line. *)
type read_outcome =
  | Line of string
  | Eof
  | Oversized

let chunk_size = 65536

let read_line_capped conn ~max_bytes =
  let chunk = Bytes.create chunk_size in
  let rec go acc acc_len =
    match String.index_opt conn.pending '\n' with
    | Some i ->
        let line = String.sub conn.pending 0 i in
        conn.pending <-
          String.sub conn.pending (i + 1) (String.length conn.pending - i - 1);
        let line = String.concat "" (List.rev (line :: acc)) in
        let line =
          (* tolerate CRLF clients *)
          let n = String.length line in
          if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
          else line
        in
        (* the cap below only guards unterminated streams; a complete
           line that arrived within one read must be checked too *)
        if String.length line > max_bytes then Oversized else Line line
    | None ->
        let acc_len = acc_len + String.length conn.pending in
        let acc =
          if conn.pending = "" then acc else conn.pending :: acc
        in
        conn.pending <- "";
        if acc_len > max_bytes then Oversized
        else begin
          match Unix.read conn.fd chunk 0 chunk_size with
          | 0 -> Eof (* a partial trailing line is dropped *)
          | n ->
              conn.pending <- Bytes.sub_string chunk 0 n;
              go acc acc_len
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go acc acc_len
          | exception Unix.Unix_error (_, _, _) -> Eof
        end
  in
  go [] 0

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let server_info t extra =
  Json.Obj
    ([
       ("version", Json.Str Cnt_obs.Version.version);
       ("uptime_s", Json.Num (now () -. t.started_at));
       ("requests_served", Json.Num (float_of_int t.requests_served));
     ]
    @ extra)

let cache_info t =
  let entries, hits, misses = Deck_cache.stats t.decks in
  let chits, cmisses = Mna.compile_cache_stats () in
  [
    ( "deck_cache",
      Json.Obj
        [
          ("entries", Json.Num (float_of_int entries));
          ("hits", Json.Num (float_of_int hits));
          ("misses", Json.Num (float_of_int misses));
        ] );
    ( "compile_cache",
      Json.Obj
        [
          ("hits", Json.Num (float_of_int chits));
          ("misses", Json.Num (float_of_int cmisses));
        ] );
  ]

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let send_engine_error conn ~id err =
  send_line conn
    (Protocol.result_error_line ~id ~error_json:(Diag.error_json err))

let handle_run t conn ~id ~deck ~config_json ~progress =
  let deck_text =
    match deck with
    | Protocol.Deck_text { text; file } -> Ok (text, file)
    | Protocol.Deck_path path -> (
        try Ok (read_file path, Some path)
        with Sys_error msg -> Error (Diag.Bad_deck msg))
  in
  match deck_text with
  | Error err -> send_engine_error conn ~id err
  | Ok (text, file) -> (
      (* config resolves before the deck lookup: the model override is
         part of the deck-cache key *)
      let config =
        match config_json with
        | None -> Ok t.cfg.base
        | Some j -> Protocol.config_of_json ~base:t.cfg.base j
      in
      match config with
      | Error msg ->
          send_line conn
            (Protocol.request_error_line ~id
               { code = "bad_request"; message = "bad config: " ^ msg })
      | Ok config -> (
          let model = Engine.resolved_model config in
          let model_known =
            match model with
            | None -> Ok ()
            | Some b -> (
                match Cnt_core.Device_model.find b with
                | Some _ -> Ok ()
                | None ->
                    Error
                      (Diag.Bad_deck
                         (Printf.sprintf
                            "unknown device-model backend %S (known: %s)" b
                            (Cnt_core.Device_model.backend_names ()))))
          in
          match model_known with
          | Error err -> send_engine_error conn ~id err
          | Ok () -> (
          match Deck_cache.find_or_parse ?model ?file t.decks text with
          | Error err -> send_engine_error conn ~id err
          | Ok (entry, deck_hit) ->
              send_line conn
                (Protocol.accepted_line ~id ~title:entry.Deck_cache.deck.title);
              locked t.state_mutex (fun () -> conn.busy <- true);
              Fun.protect
                ~finally:(fun () ->
                  locked t.state_mutex (fun () -> conn.busy <- false))
              @@ fun () ->
              (* [run_s] starts before the run mutex, so it includes the
                 wait for it *)
              let t0 = now () in
              let result, compile_hit =
                locked t.run_mutex @@ fun () ->
                (* the compile-cache counter is process-wide: only reads
                   taken while holding the run mutex belong to this
                   request *)
                let chits0, _ = Mna.compile_cache_stats () in
                let run () =
                  Engine.run_deck_result ~config entry.Deck_cache.deck
                in
                let result =
                  if progress then
                    Progress.with_sink
                      (Progress.lines (fun event_json ->
                           send_line conn
                             (Protocol.progress_line ~id ~event_json)))
                      run
                  else run ()
                in
                let chits1, _ = Mna.compile_cache_stats () in
                (result, chits1 > chits0)
              in
              let run_s = now () -. t0 in
              t.requests_served <- t.requests_served + 1;
              (match result with
              | Ok tables ->
                  let server =
                    server_info t
                      [
                        ("deck_md5", Json.Str entry.Deck_cache.md5);
                        ( "model",
                          match model with
                          | None -> Json.Null
                          | Some b -> Json.Str b );
                        ( "deck_cache",
                          Json.Str (if deck_hit then "hit" else "miss") );
                        ( "compile_cache",
                          Json.Str (if compile_hit then "hit" else "miss")
                        );
                        ("run_s", Json.Num run_s);
                      ]
                  in
                  send_line conn
                    (Protocol.result_ok_line ~id ~server ~tables)
              | Error err -> send_engine_error conn ~id err);
              log t "request %s: %s deck=%s %.3fs" id
                (match result with Ok _ -> "ok" | Error e -> Diag.error_kind e)
                (String.sub entry.Deck_cache.md5 0 8)
                run_s)))

let handle_request t conn line =
  match Protocol.parse_request line with
  | Error err -> send_line conn (Protocol.request_error_line ~id:"" err)
  | Ok (Protocol.Ping { id }) ->
      send_line conn (Protocol.pong_line ~id ~server:(server_info t (cache_info t)))
  | Ok (Protocol.Run { id; deck; config_json; progress }) ->
      handle_run t conn ~id ~deck ~config_json ~progress

let handle_conn t conn =
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close conn.fd with Unix.Unix_error _ -> ());
      locked t.state_mutex (fun () ->
          t.conns <- List.filter (fun c -> c != conn) t.conns);
      log t "disconnect %s" conn.peer)
  @@ fun () ->
  let rec loop () =
    match read_line_capped conn ~max_bytes:t.cfg.max_request_bytes with
    | Eof -> ()
    | Oversized ->
        (* the line tail is unread, so the stream cannot be resynced:
           report and drop the connection (the daemon itself lives on) *)
        (try
           send_line conn
             (Protocol.request_error_line ~id:""
                {
                  code = "oversized";
                  message =
                    Printf.sprintf "request line exceeds %d bytes"
                      t.cfg.max_request_bytes;
                })
         with Client_gone -> ())
    | Line line ->
        if String.trim line = "" then loop ()
        else begin
          (match handle_request t conn line with
          | () -> ()
          | exception Client_gone -> log t "client %s gone mid-request" conn.peer
          | exception e ->
              (* a handler bug must not kill the daemon: report as an
                 internal error if the client is still there *)
              log t "request on %s raised %s" conn.peer (Printexc.to_string e);
              (try send_engine_error conn ~id:"" (Diag.Internal (Printexc.to_string e))
               with Client_gone -> ()));
          if locked t.state_mutex (fun () -> t.stopping) then () else loop ()
        end
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* Accept loop and lifecycle                                           *)
(* ------------------------------------------------------------------ *)

let accept_loop t =
  let rec loop () =
    if locked t.state_mutex (fun () -> t.stopping) then ()
    else begin
      (* poll with a timeout so stop() never races a blocked accept *)
      (match Unix.select [ t.listen_fd ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, addr ->
              let peer =
                match addr with
                | Unix.ADDR_UNIX _ -> "unix"
                | Unix.ADDR_INET (a, p) ->
                    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
              in
              let conn =
                {
                  fd;
                  peer;
                  write_mutex = Mutex.create ();
                  pending = "";
                  busy = false;
                }
              in
              let reject =
                locked t.state_mutex (fun () ->
                    if t.stopping then true
                    else begin
                      t.conns <- conn :: t.conns;
                      false
                    end)
              in
              if reject then (try Unix.close fd with Unix.Unix_error _ -> ())
              else begin
                log t "connect %s" peer;
                ignore (Thread.create (fun () -> handle_conn t conn) ())
              end
          | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  try loop () with _ -> ()

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith (Printf.sprintf "cannot resolve host %S" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found ->
          failwith (Printf.sprintf "cannot resolve host %S" host))

let start cfg =
  (* writes to vanished clients must surface as EPIPE, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.compile_cache_entries > 0 then
    Mna.enable_compile_cache ~max_entries:cfg.compile_cache_entries ();
  let listen_fd =
    match cfg.listen with
    | Unix_path path ->
        if Sys.file_exists path then begin
          (* refuse to steal a non-socket path; a stale socket from a
             dead daemon is replaced *)
          if (Unix.stat path).Unix.st_kind <> Unix.S_SOCK then
            invalid_arg
              (Printf.sprintf "listen path %S exists and is not a socket" path);
          Unix.unlink path
        end;
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        fd
    | Tcp (host, port) ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd (Unix.ADDR_INET (resolve_host host, port));
        Unix.listen fd 64;
        fd
  in
  let t =
    {
      cfg;
      listen_fd;
      decks = Deck_cache.create ~max_entries:cfg.deck_cache_entries ();
      run_mutex = Mutex.create ();
      state_mutex = Mutex.create ();
      conns = [];
      stopping = false;
      accept_thread = None;
      requests_served = 0;
      started_at = now ();
    }
  in
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let stop ?(grace_s = 1.0) ?(drain_s = 30.0) t =
  let already = locked t.state_mutex (fun () ->
      let was = t.stopping in
      t.stopping <- true;
      was)
  in
  if not already then begin
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    (match t.cfg.listen with
    | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Tcp _ -> ());
    (* drain: busy connections finish their request; idle connections
       get [grace_s] to send one before being shut down *)
    let t_start = now () in
    let graced = ref false in
    let rec wait () =
      let conns = locked t.state_mutex (fun () -> t.conns) in
      if conns = [] then ()
      else begin
        let elapsed = now () -. t_start in
        if elapsed > drain_s then
          List.iter
            (fun c ->
              try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
              with Unix.Unix_error _ -> ())
            conns
        else if (not !graced) && elapsed > grace_s then begin
          graced := true;
          List.iter
            (fun c ->
              let idle = locked t.state_mutex (fun () -> not c.busy) in
              if idle then
                try Unix.shutdown c.fd Unix.SHUTDOWN_RECEIVE
                with Unix.Unix_error _ -> ())
            conns
        end;
        if now () -. t_start > drain_s +. 2.0 then () (* give up *)
        else begin
          Thread.delay 0.01;
          wait ()
        end
      end
    in
    wait ();
    log t "drained after %.2fs, %d requests served" (now () -. t_start)
      t.requests_served
  end

let requests_served t = t.requests_served
let listen_addr t = t.cfg.listen
