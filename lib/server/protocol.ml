(* cnt-rpc/1: the line-delimited JSON wire protocol between the cntd
   daemon and its clients.

   One request per line, newline-terminated; the daemon answers a run
   request with an [accepted] frame (the deck title, sent before the
   solve so clients can stream output in the offline print order), zero
   or more [progress] frames carrying {!Cnt_obs.Progress.event_to_json}
   payloads verbatim, and exactly one [result] frame — [status:"ok"]
   with the tables, or [status:"error"] with a {!Cnt_spice.Diag}-shaped
   error object.  Protocol-level failures (bad JSON, unknown rpc tag,
   oversized line) reuse the error result shape with their own [kind]
   so clients handle every failure through one path. *)

open Cnt_spice

let rpc_version = "cnt-rpc/1"

type deck_source =
  | Deck_text of { text : string; file : string option }
      (* [file] is an optional client-side path hint: it names the
         text in parse-error locations and anchors relative .include
         paths, which keeps --connect stderr byte-identical to
         offline *)
  | Deck_path of string

type request =
  | Run of {
      id : string;
      deck : deck_source;
      config_json : Json.t option;
      progress : bool;
    }
  | Ping of { id : string }

type request_error = { code : string; message : string }

(* ------------------------------------------------------------------ *)
(* Engine.config <-> JSON                                              *)
(* ------------------------------------------------------------------ *)

let opt f = function None -> Json.Null | Some v -> f v

let config_to_json (c : Engine.config) =
  Json.Obj
    [
      ("gmin", Json.Num c.gmin);
      ("tol", Json.Num c.tol);
      ("max_iter", Json.Num (float_of_int c.max_iter));
      ( "homotopy",
        Json.Obj
          [
            ("damped", Json.Bool c.homotopy.damped);
            ("gmin_stepping", Json.Bool c.homotopy.gmin_stepping);
            ("source_stepping", Json.Bool c.homotopy.source_stepping);
            ("gmin_source", Json.Bool c.homotopy.gmin_source);
            ("gmin_start", Json.Num c.homotopy.gmin_start);
            ("gmin_steps", Json.Num (float_of_int c.homotopy.gmin_steps));
            ("source_steps", Json.Num (float_of_int c.homotopy.source_steps));
          ] );
      ("deadline_s", opt (fun s -> Json.Num s) c.deadline);
      ("model", opt (fun m -> Json.Str m) c.model);
    ]

exception Bad of string

let get name conv j fallback =
  match Json.member name j with
  | None | Some Json.Null -> fallback
  | Some v -> (
      match conv v with
      | Some x -> x
      | None -> raise (Bad (Printf.sprintf "bad value for %S" name)))

(* The keys [config_of_json] accepts: exactly those [config_to_json]
   writes.  Anything else is rejected rather than ignored, since a
   misspelt or retired key would otherwise run silently on the base
   value. *)
let config_keys, homotopy_keys =
  let keys = function Json.Obj fields -> List.map fst fields | _ -> [] in
  let j = config_to_json Engine.default_config in
  (keys j, keys (Option.get (Json.member "homotopy" j)))

let check_keys ~what ~prefix keys = function
  | Json.Obj fields ->
      List.iter
        (fun (k, _) ->
          if not (List.mem k keys) then
            raise (Bad (Printf.sprintf "unknown key %S" (prefix ^ k))))
        fields
  | _ -> raise (Bad (what ^ " must be an object"))

let config_of_json ~(base : Engine.config) j =
  try
    check_keys ~what:"config" ~prefix:"" config_keys j;
    let hbase = base.homotopy in
    let homotopy =
      match Json.member "homotopy" j with
      | None | Some Json.Null -> hbase
      | Some h ->
          check_keys ~what:"\"homotopy\"" ~prefix:"homotopy." homotopy_keys h;
          {
            Homotopy.damped = get "damped" Json.to_bool h hbase.damped;
            gmin_stepping =
              get "gmin_stepping" Json.to_bool h hbase.gmin_stepping;
            source_stepping =
              get "source_stepping" Json.to_bool h hbase.source_stepping;
            gmin_source = get "gmin_source" Json.to_bool h hbase.gmin_source;
            gmin_start = get "gmin_start" Json.to_float h hbase.gmin_start;
            gmin_steps = get "gmin_steps" Json.to_int h hbase.gmin_steps;
            source_steps = get "source_steps" Json.to_int h hbase.source_steps;
          }
    in
    let config =
      {
        Engine.gmin = get "gmin" Json.to_float j base.gmin;
        tol = get "tol" Json.to_float j base.tol;
        max_iter = get "max_iter" Json.to_int j base.max_iter;
        homotopy;
        deadline =
          get "deadline_s"
            (fun v -> Option.map Option.some (Json.to_float v))
            j base.deadline;
        model =
          get "model"
            (fun v -> Option.map Option.some (Json.to_str v))
            j base.model;
      }
    in
    match Engine.check_config config with
    | Ok () -> Ok config
    | Error (field, reason) ->
        (* the one record label whose wire key differs *)
        let key = if field = "deadline" then "deadline_s" else field in
        Error (Printf.sprintf "bad value for %S: %s" key reason)
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Engine.table <-> JSON                                               *)
(* ------------------------------------------------------------------ *)

let stats_to_json (s : Mna.stats) =
  Json.Obj
    [
      ("backend", Json.Str s.backend);
      ("unknowns", Json.Num (float_of_int s.unknowns));
      ("nonzeros", Json.Num (float_of_int s.nonzeros));
      ("newton_iterations", Json.Num (float_of_int s.newton_iterations));
      ("linear_solves", Json.Num (float_of_int s.linear_solves));
      ("device_evals", Json.Num (float_of_int s.device_evals));
      ("device_bypassed", Json.Num (float_of_int s.device_bypassed));
      ("assemble_s", Json.Num s.assemble_s);
      ("solve_s", Json.Num s.solve_s);
      ("residual", Json.Num s.residual);
    ]

let stats_of_json j =
  let s =
    Mna.fresh_stats
      ~backend:(get "backend" Json.to_str j "unknown")
      ~unknowns:(get "unknowns" Json.to_int j 0)
      ~nonzeros:(get "nonzeros" Json.to_int j 0)
  in
  s.newton_iterations <- get "newton_iterations" Json.to_int j 0;
  s.linear_solves <- get "linear_solves" Json.to_int j 0;
  s.device_evals <- get "device_evals" Json.to_int j 0;
  s.device_bypassed <- get "device_bypassed" Json.to_int j 0;
  s.assemble_s <- get "assemble_s" Json.to_float j 0.0;
  s.solve_s <- get "solve_s" Json.to_float j 0.0;
  s.residual <- get "residual" Json.to_float j 0.0;
  s

let table_to_json (t : Engine.table) =
  Json.Obj
    [
      ("analysis", Json.Str t.analysis_label);
      ( "columns",
        Json.Arr (Array.to_list (Array.map (fun c -> Json.Str c) t.columns)) );
      ( "rows",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun row ->
                  Json.Arr
                    (Array.to_list (Array.map (fun v -> Json.Num v) row)))
                t.rows)) );
      ("stats", stats_to_json t.stats);
    ]

let table_of_json j =
  try
    let need name conv =
      match Option.bind (Json.member name j) conv with
      | Some v -> v
      | None -> raise (Bad (Printf.sprintf "table missing %S" name))
    in
    let columns =
      need "columns" Json.to_list
      |> List.map (fun c ->
             match Json.to_str c with
             | Some s -> s
             | None -> raise (Bad "bad column name"))
      |> Array.of_list
    in
    let rows =
      need "rows" Json.to_list
      |> List.map (fun row ->
             match Json.to_list row with
             | None -> raise (Bad "bad row")
             | Some cells ->
                 cells
                 |> List.map (fun c ->
                        match Json.to_float c with
                        | Some v -> v
                        | None -> raise (Bad "bad cell"))
                 |> Array.of_list)
      |> Array.of_list
    in
    let stats =
      match Json.member "stats" j with
      | Some s -> stats_of_json s
      | None -> Mna.fresh_stats ~backend:"unknown" ~unknowns:0 ~nonzeros:0
    in
    Ok
      {
        Engine.analysis_label = need "analysis" Json.to_str;
        columns;
        rows;
        stats;
      }
  with Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Request encoding / parsing                                          *)
(* ------------------------------------------------------------------ *)

let encode_run ~id ~deck ~config ~progress =
  let deck_json =
    match deck with
    | Deck_text { text; file = None } -> Json.Obj [ ("text", Json.Str text) ]
    | Deck_text { text; file = Some f } ->
        Json.Obj [ ("text", Json.Str text); ("file", Json.Str f) ]
    | Deck_path path -> Json.Obj [ ("path", Json.Str path) ]
  in
  Json.to_string
    (Json.Obj
       [
         ("rpc", Json.Str rpc_version);
         ("op", Json.Str "run");
         ("id", Json.Str id);
         ("deck", deck_json);
         ("config", config_to_json config);
         ("progress", Json.Bool progress);
       ])

let encode_ping ~id =
  Json.to_string
    (Json.Obj
       [
         ("rpc", Json.Str rpc_version);
         ("op", Json.Str "ping");
         ("id", Json.Str id);
       ])

let parse_request line =
  match Json.parse line with
  | Error msg -> Error { code = "bad_json"; message = "bad JSON: " ^ msg }
  | Ok j -> (
      let id =
        match Option.bind (Json.member "id" j) Json.to_str with
        | Some id -> id
        | None -> ""
      in
      match Option.bind (Json.member "rpc" j) Json.to_str with
      | None ->
          Error { code = "bad_request"; message = "missing \"rpc\" field" }
      | Some v when v <> rpc_version ->
          Error
            {
              code = "unsupported_rpc";
              message =
                Printf.sprintf "unsupported rpc version %S (this daemon speaks %s)"
                  v rpc_version;
            }
      | Some _ -> (
          match Option.bind (Json.member "op" j) Json.to_str with
          | Some "ping" -> Ok (Ping { id })
          | Some "run" -> (
              let progress =
                match Option.bind (Json.member "progress" j) Json.to_bool with
                | Some b -> b
                | None -> false
              in
              let config_json =
                (* a null config inherits the daemon's base, like a
                   null field inside it *)
                match Json.member "config" j with
                | Some Json.Null -> None
                | c -> c
              in
              match Json.member "deck" j with
              | None ->
                  Error
                    { code = "bad_request"; message = "missing \"deck\" field" }
              | Some d -> (
                  match
                    ( Option.bind (Json.member "text" d) Json.to_str,
                      Option.bind (Json.member "path" d) Json.to_str )
                  with
                  | Some text, _ ->
                      let file =
                        Option.bind (Json.member "file" d) Json.to_str
                      in
                      Ok
                        (Run
                           {
                             id;
                             deck = Deck_text { text; file };
                             config_json;
                             progress;
                           })
                  | None, Some path ->
                      Ok (Run { id; deck = Deck_path path; config_json; progress })
                  | None, None ->
                      Error
                        {
                          code = "bad_request";
                          message = "deck needs a \"text\" or \"path\" field";
                        }))
          | Some op ->
              Error
                {
                  code = "bad_request";
                  message = Printf.sprintf "unknown op %S" op;
                }
          | None ->
              Error { code = "bad_request"; message = "missing \"op\" field" }))

(* ------------------------------------------------------------------ *)
(* Response frames                                                     *)
(* ------------------------------------------------------------------ *)

let frame_fields kind id rest =
  Json.to_string
    (Json.Obj
       (("rpc", Json.Str rpc_version)
       :: ("frame", Json.Str kind)
       :: ("id", Json.Str id)
       :: rest))

let accepted_line ~id ~title = frame_fields "accepted" id [ ("title", Json.Str title) ]

let progress_line ~id ~event_json =
  frame_fields "progress" id [ ("event", Json.Raw event_json) ]

let result_ok_line ~id ~server ~tables =
  frame_fields "result" id
    [
      ("status", Json.Str "ok");
      ("server", server);
      ("tables", Json.Arr (List.map table_to_json tables));
    ]

let result_error_line ~id ~error_json =
  frame_fields "result" id
    [ ("status", Json.Str "error"); ("error", Json.Raw error_json) ]

let request_error_line ~id { code; message } =
  (* shaped like Diag.error_json so clients report protocol failures
     through the same path as engine errors; exit 2 matches the CLI
     contract for malformed input *)
  result_error_line ~id
    ~error_json:
      (Json.to_string
         (Json.Obj
            [
              ("status", Json.Str "error");
              ("kind", Json.Str code);
              ("exit_code", Json.Num 2.0);
              ("message", Json.Str message);
            ]))

let pong_line ~id ~server = frame_fields "pong" id [ ("server", server) ]

(* ------------------------------------------------------------------ *)
(* Frame parsing (client side)                                         *)
(* ------------------------------------------------------------------ *)

let event_of_json j =
  let str name = Option.bind (Json.member name j) Json.to_str in
  let num name = Option.bind (Json.member name j) Json.to_float in
  let int name = Option.bind (Json.member name j) Json.to_int in
  let open Cnt_obs.Progress in
  match str "ev" with
  | Some "analysis_start" -> (
      match (str "analysis", str "label") with
      | Some analysis, Some label -> Some (Analysis_start { analysis; label })
      | _ -> None)
  | Some "analysis_finish" -> (
      match (str "analysis", str "label", int "points") with
      | Some analysis, Some label, Some points ->
          Some (Analysis_finish { analysis; label; points })
      | _ -> None)
  | Some "sweep_point" -> (
      match (int "k", int "n", num "value") with
      | Some k, Some n, Some value -> Some (Sweep_point { k; n; value })
      | _ -> None)
  | Some "tran_step" -> (
      match (num "t", num "t_stop", int "accepted", int "rejected") with
      | Some t, Some t_stop, Some accepted, Some rejected ->
          Some (Tran_step { t; t_stop; accepted; rejected })
      | _ -> None)
  | Some "sample" -> (
      match (str "label", int "i", int "n") with
      | Some label, Some i, Some n -> Some (Sample { label; i; n })
      | _ -> None)
  | Some "rung_escalation" -> (
      match str "rung" with
      | Some rung ->
          Some (Rung_escalation { rung; sweep_point = num "sweep_point" })
      | None -> None)
  | _ -> None

type frame =
  | Accepted of { id : string; title : string }
  | Progress of { id : string; event : Cnt_obs.Progress.event option }
  | Result_ok of { id : string; server : Json.t; tables : Engine.table list }
  | Result_error of {
      id : string;
      kind : string;
      exit_code : int;
      message : string;
      error_json : string;
    }
  | Pong of { id : string; server : Json.t }

let parse_frame line =
  match Json.parse line with
  | Error msg -> Error ("bad frame: " ^ msg)
  | Ok j -> (
      let id =
        match Option.bind (Json.member "id" j) Json.to_str with
        | Some id -> id
        | None -> ""
      in
      match Option.bind (Json.member "frame" j) Json.to_str with
      | Some "accepted" -> (
          match Option.bind (Json.member "title" j) Json.to_str with
          | Some title -> Ok (Accepted { id; title })
          | None -> Error "accepted frame without title")
      | Some "progress" ->
          let event = Option.bind (Json.member "event" j) event_of_json in
          Ok (Progress { id; event })
      | Some "pong" ->
          let server =
            Option.value (Json.member "server" j) ~default:(Json.Obj [])
          in
          Ok (Pong { id; server })
      | Some "result" -> (
          match Option.bind (Json.member "status" j) Json.to_str with
          | Some "ok" -> (
              let server =
                Option.value (Json.member "server" j) ~default:(Json.Obj [])
              in
              let tables =
                Option.value
                  (Option.bind (Json.member "tables" j) Json.to_list)
                  ~default:[]
              in
              let rec decode acc = function
                | [] -> Ok (List.rev acc)
                | t :: rest -> (
                    match table_of_json t with
                    | Ok tbl -> decode (tbl :: acc) rest
                    | Error msg -> Error msg)
              in
              match decode [] tables with
              | Ok tables -> Ok (Result_ok { id; server; tables })
              | Error msg -> Error msg)
          | Some "error" -> (
              match Json.member "error" j with
              | Some err ->
                  Ok
                    (Result_error
                       {
                         id;
                         kind = get "kind" Json.to_str err "internal";
                         exit_code = get "exit_code" Json.to_int err 4;
                         message = get "message" Json.to_str err "";
                         error_json = Json.to_string err;
                       })
              | None -> Error "error result without error object")
          | _ -> Error "result frame without status")
      | Some other -> Error (Printf.sprintf "unknown frame %S" other)
      | None -> Error "frame without \"frame\" field")
