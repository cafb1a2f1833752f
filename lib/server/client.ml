(* Client side of cnt-rpc/1: connect, send one request, stream the
   response frames.  This is what [cspice --connect] runs on — the
   tables come back reconstructed as {!Cnt_spice.Engine.table} values
   (float-exact, see {!Json}), so the caller prints them through the
   very same code path as an offline run and the bytes match. *)

type connection = { fd : Unix.file_descr; reader : Server.reader }

type error = {
  kind : string;
  exit_code : int;
  message : string;
  error_json : string;
}

let transport message =
  {
    kind = "transport";
    exit_code = 4;
    message;
    error_json =
      Json.to_string
        (Json.Obj
           [
             ("status", Json.Str "error");
             ("kind", Json.Str "transport");
             ("exit_code", Json.Num 4.0);
             ("message", Json.Str message);
           ]);
  }

let connect addr_string =
  match Server.listen_of_string addr_string with
  | Error msg -> Error msg
  | Ok listen -> (
      let domain, addr =
        match listen with
        | Server.Unix_path path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
        | Server.Tcp (host, port) ->
            let inet =
              match Unix.inet_addr_of_string host with
              | a -> a
              | exception Failure _ -> (
                  match Unix.gethostbyname host with
                  | { Unix.h_addr_list; _ } when Array.length h_addr_list > 0
                    ->
                      h_addr_list.(0)
                  | _ | (exception Not_found) ->
                      Unix.inet_addr_loopback)
            in
            (Unix.PF_INET, Unix.ADDR_INET (inet, port))
      in
      let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
      match Unix.connect fd addr with
      | () ->
          (* see [Server.write_line] *)
          if domain = Unix.PF_INET then
            (try Unix.setsockopt fd Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
          Ok { fd; reader = Server.reader fd }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "%s: %s" addr_string (Unix.error_message e)))

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send_line conn line =
  try Ok (Server.write_line conn.fd line)
  with Unix.Unix_error (e, _, _) ->
    Error (transport ("send failed: " ^ Unix.error_message e))

(* Result frames carry whole waveform tables, so the cap is generous —
   it only exists to bound a runaway peer. *)
let max_frame_bytes = 256 * 1024 * 1024

let read_line conn =
  match Server.read_line conn.reader ~max_bytes:max_frame_bytes with
  | Server.Line line -> Some line
  | Server.Eof | Server.Oversized -> None

let run conn ?(id = "1") ?file ~deck_text ~config ~progress
    ?(on_title = fun _ -> ()) ?(on_event = fun _ -> ()) () =
  match
    send_line conn
      (Protocol.encode_run ~id
         ~deck:(Protocol.Deck_text { text = deck_text; file })
         ~config ~progress)
  with
  | Error e -> Error e
  | Ok () ->
      let rec loop () =
        match read_line conn with
        | None -> Error (transport "connection closed before result")
        | Some line -> (
            match Protocol.parse_frame line with
            | Error msg -> Error (transport msg)
            | Ok (Protocol.Accepted { title; _ }) ->
                on_title title;
                loop ()
            | Ok (Protocol.Progress { event; _ }) ->
                Option.iter on_event event;
                loop ()
            | Ok (Protocol.Pong _) -> loop ()
            | Ok (Protocol.Result_ok { server; tables; _ }) ->
                Ok (tables, server)
            | Ok
                (Protocol.Result_error
                  { kind; exit_code; message; error_json; _ }) ->
                Error { kind; exit_code; message; error_json })
      in
      loop ()

let ping conn ?(id = "0") () =
  match send_line conn (Protocol.encode_ping ~id) with
  | Error e -> Error e.message
  | Ok () -> (
      match read_line conn with
      | None -> Error "connection closed before pong"
      | Some line -> (
          match Protocol.parse_frame line with
          | Ok (Protocol.Pong { server; _ }) -> Ok server
          | Ok _ -> Error "unexpected frame (wanted pong)"
          | Error msg -> Error msg))
