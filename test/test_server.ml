(* Daemon layer: the cnt-rpc/1 wire protocol, the cntd daemon and the
   cspice --connect client.

   The contract under test (docs/SERVER.md): tables cross the wire
   float-exactly, so `cspice --connect` stdout is byte-identical to an
   offline run of the same deck — including under concurrent requests;
   protocol-level garbage (oversized lines, malformed JSON, unknown rpc
   versions, disconnects mid-request) produces one structured error
   frame, or a clean cancel, without killing the daemon; SIGTERM drains
   gracefully to exit 0; deadlines surface as the structured deadline
   error with exit 5. *)

module Json = Cnt_server.Json
module Protocol = Cnt_server.Protocol
module Client = Cnt_server.Client
module Server = Cnt_server.Server

(* Daemon runs are compared against offline runs of the same decks on
   their declared models: neutralise any CNT_MODEL override from the
   environment (the CI model matrix) for this process and the
   cntd/cspice children — empty counts as unset. *)
let () = Unix.putenv "CNT_MODEL" ""

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_dir = Filename.dirname Sys.executable_name
let in_test_dir path = Filename.concat test_dir path

let exe name =
  in_test_dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let deck name = in_test_dir (Filename.concat "decks" (name ^ ".cir"))

let run_command cmd =
  let out = Filename.temp_file "cnt_server" ".out" in
  let err = Filename.temp_file "cnt_server" ".err" in
  let code = Sys.command (Printf.sprintf "%s > %s 2> %s" cmd out err) in
  let stdout_text = read_file out in
  let stderr_text = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout_text, stderr_text)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_float_roundtrip () =
  let values =
    [
      0.0; -0.0; 1.0; -1.5; 0.1; 1e-300; -1e300; Float.pi; 1.0 /. 3.0;
      Float.nan; Float.infinity; Float.neg_infinity; 4095.999999999999;
    ]
  in
  List.iter
    (fun v ->
      let rendered = Json.to_string (Json.Num v) in
      match Json.parse rendered with
      | Error msg -> Alcotest.failf "%s: %s" rendered msg
      | Ok j -> (
          match Json.to_float j with
          | None -> Alcotest.failf "%s: not a float" rendered
          | Some v' ->
              Alcotest.(check bool)
                (Printf.sprintf "bits of %h survive" v)
                true
                (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
                || (Float.is_nan v && Float.is_nan v'))))
    values

let test_json_parse_rejects () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ "{nope"; ""; "{\"a\":}"; "[1,"; "\"unterminated"; "{} trailing";
      String.concat "" (List.init 100 (fun _ -> "[")) ]

let test_json_string_escapes () =
  let s = "line\nwith\ttabs \"quotes\" back\\slash" in
  match Json.parse (Json.to_string (Json.Str s)) with
  | Ok (Json.Str s') -> Alcotest.(check string) "escape round-trip" s s'
  | _ -> Alcotest.fail "string did not round-trip"

(* ------------------------------------------------------------------ *)
(* The codec against its earlier Printf / option-peek implementation   *)
(* ------------------------------------------------------------------ *)

(* The renderer and parser [Json] had before they stopped allocating
   per number and per character, kept verbatim as the reference the
   current ones must agree with: same text for every number, and the
   same value, or the same error message at the same offset, for every
   input. *)
module Reference = struct
  let num v =
    if Float.is_nan v then "\"NaN\""
    else if v = Float.infinity then "\"Infinity\""
    else if v = Float.neg_infinity then "\"-Infinity\""
    else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
    else Printf.sprintf "%.17g" v

  exception Fail of string

  let parse_exn text =
    let pos = ref 0 in
    let n = String.length text in
    let fail msg = raise (Fail (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some text.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
          advance ();
          skip_ws ()
      | _ -> ()
    in
    let expect c =
      if peek () = Some c then advance ()
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word value =
      if
        !pos + String.length word <= n
        && String.sub text !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail (Printf.sprintf "bad literal (wanted %s)" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = text.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
            if !pos >= n then fail "unterminated escape";
            let e = text.[!pos] in
            advance ();
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 't' -> Buffer.add_char buf '\t'
            | 'r' -> Buffer.add_char buf '\r'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub text !pos 4 in
                pos := !pos + 4;
                let code =
                  try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
                in
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else Buffer.add_string buf (Printf.sprintf "\\u%s" hex)
            | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char buf c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c -> is_num_char c | None -> false) do
        advance ()
      done;
      if !pos = start then fail "expected number";
      match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some v -> v
      | None -> fail "bad number"
    in
    let rec parse_value depth =
      if depth > 64 then fail "nesting too deep";
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then begin
            advance ();
            Json.Obj []
          end
          else begin
            let rec fields acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  fields ((k, v) :: acc)
              | Some '}' ->
                  advance ();
                  Json.Obj (List.rev ((k, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            fields []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then begin
            advance ();
            Json.Arr []
          end
          else begin
            let rec items acc =
              let v = parse_value (depth + 1) in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  advance ();
                  items (v :: acc)
              | Some ']' ->
                  advance ();
                  Json.Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            items []
          end
      | Some '"' -> Json.Str (parse_string ())
      | Some 't' -> literal "true" (Json.Bool true)
      | Some 'f' -> literal "false" (Json.Bool false)
      | Some 'n' -> literal "null" Json.Null
      | Some _ -> Json.Num (parse_number ())
      | None -> fail "unexpected end of input"
    in
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v

  let parse text =
    match parse_exn text with v -> Ok v | exception Fail msg -> Error msg
end

(* Structural equality with numbers compared by bits. *)
let rec same_json a b =
  match (a, b) with
  | Json.Num x, Json.Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Arr xs, Json.Arr ys ->
      List.length xs = List.length ys && List.for_all2 same_json xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, x) (l, y) -> k = l && same_json x y) xs ys
  | _ -> a = b

let show_parse = function
  | Ok j -> "Ok " ^ Json.to_string j
  | Error msg -> "Error " ^ msg

let agrees_with_reference text =
  let got = Json.parse text and want = Reference.parse text in
  let same =
    match (got, want) with
    | Ok a, Ok b -> same_json a b
    | Error a, Error b -> a = b
    | _ -> false
  in
  same
  || QCheck2.Test.fail_reportf "%S:\n  reference: %s\n  Json.parse: %s" text
       (show_parse want) (show_parse got)

(* Numbers as a frame carries them, plus the edges of both renderings:
   signed zeros, subnormals, the integers around 2^53, the %.0f/%.17g
   switch at 1e15, the non-finite values, and raw bit patterns. *)
let gen_float =
  let open QCheck2.Gen in
  let p53 = 9007199254740992.0 in
  oneof
    [
      map Int64.float_of_bits ui64;
      float;
      oneofl
        [
          0.0; -0.0; 5e-324; -5e-324; Float.min_float; -.Float.min_float;
          Float.pred Float.min_float; Float.max_float; -.Float.max_float;
          Float.pred p53; p53; Float.succ p53; -.p53; 2.0 *. p53;
          1e15; -1e15; Float.pred 1e15; Float.succ 1e15; Float.pred (-1e15);
          Float.succ (-1e15); 999999999999999.0; 0.1; 1.0 /. 3.0;
          Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity;
        ];
      map (fun i -> float_of_int i) (int_range (-100000) 100000);
      map (fun i -> Int64.float_of_bits (Int64.of_int i)) (int_range 0 0xFFFFF);
    ]

let prop_num_text =
  QCheck2.Test.make ~name:"numbers render as Printf did and parse back" ~count:2000
    ~print:(Printf.sprintf "%h") gen_float (fun v ->
      let text = Json.to_string (Json.Num v) in
      let want = Reference.num v in
      if text <> want then
        QCheck2.Test.fail_reportf "%h: Printf %S, Json %S" v want text
      else
        match Option.bind (Result.to_option (Json.parse text)) Json.to_float with
        | None -> QCheck2.Test.fail_reportf "%h: %S does not parse back" v text
        | Some v' ->
            Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float v')
            || (Float.is_nan v && Float.is_nan v')
            || QCheck2.Test.fail_reportf "%h: %S parses to %h" v text v')

(* Random documents: values rendered whole, then the same alphabet
   thrown together with no grammar, to reach every error path. *)
let gen_document =
  let open QCheck2.Gen in
  let key_char =
    frequency
      [ (8, char_range 'a' 'z'); (1, oneofl [ '"'; '\\'; '\n'; '\t'; '\001'; '\xe9' ]) ]
  in
  let gen_str = string_size ~gen:key_char (int_range 0 8) in
  let value =
    sized
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 pure Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun v -> Json.Num v) gen_float;
                 map (fun s -> Json.Str s) gen_str;
               ]
           in
           if n <= 0 then leaf
           else
             frequency
               [
                 (3, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (n / 3))));
                 ( 1,
                   map (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair gen_str (self (n / 3)))) );
               ])
  in
  let soup =
    string_size (int_range 0 40)
      ~gen:
        (oneofl
           [
             '{'; '}'; '['; ']'; '"'; ':'; ','; ' '; '\n'; '\\'; 'u'; '0'; '1';
             '9'; '.'; 'e'; 'E'; '+'; '-'; 't'; 'r'; 'f'; 'a'; 'l'; 's'; 'n';
             'x'; 'A';
           ])
  in
  frequency [ (1, map Json.to_string value); (1, soup) ]

let prop_parse_documents =
  QCheck2.Test.make ~name:"parse agrees with the reference on random documents"
    ~count:2000 ~print:(Printf.sprintf "%S") gen_document agrees_with_reference

(* A result frame as the daemon sends it, 1-3 bytes mutated. *)
let sample_frame =
  let stats = Cnt_spice.Mna.fresh_stats ~backend:"sparse" ~unknowns:5 ~nonzeros:11 in
  let table =
    {
      Cnt_spice.Engine.analysis_label = "dc vin 0 0.6 0.005";
      columns = [| "vin"; "v(out)"; "id(mn)" |];
      rows =
        Array.init 8 (fun i ->
            let v = 0.005 *. float_of_int i in
            [| v; 0.6 -. (v *. v); -1.25e-6 *. v; |]);
      stats;
    }
  in
  Protocol.result_ok_line ~id:"7"
    ~server:(Json.Obj [ ("run_s", Json.Num 0.0123); ("deck_cache", Json.Str "hit") ])
    ~tables:[ table ]

let gen_mutated_frame =
  let open QCheck2.Gen in
  let n = String.length sample_frame in
  let edit =
    let* i = int_range 0 (n - 1) in
    let* c = oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; 'e'; '-'; '.'; '9'; 'x'; ' ' ] in
    oneofl
      [
        (fun s -> if i < String.length s then String.mapi (fun j d -> if j = i then c else d) s else s);
        (fun s ->
          if i < String.length s then String.sub s 0 i ^ String.sub s (i + 1) (String.length s - i - 1)
          else s);
        (fun s ->
          let i = min i (String.length s) in
          String.sub s 0 i ^ String.make 1 c ^ String.sub s i (String.length s - i));
        (fun s -> String.sub s 0 (min i (String.length s)));
      ]
  in
  let* edits = list_size (int_range 1 3) edit in
  pure (List.fold_left (fun s f -> f s) sample_frame edits)

let prop_parse_mutated_frames =
  QCheck2.Test.make ~name:"parse agrees with the reference on mutated frames"
    ~count:2000 ~print:(Printf.sprintf "%S") gen_mutated_frame agrees_with_reference

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let test_config_roundtrip () =
  let config =
    {
      Cnt_spice.Engine.default_config with
      tol = 1e-7;
      deadline = Some 2.5;
      homotopy = { Cnt_spice.Homotopy.default with gmin_steps = 17 };
    }
  in
  let j = Protocol.config_to_json config in
  match Protocol.config_of_json ~base:Cnt_spice.Engine.default_config j with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      Alcotest.(check bool) "whole config survives" true (c = config)

let test_config_partial_override () =
  match
    Protocol.config_of_json ~base:Cnt_spice.Engine.default_config
      (Json.Obj [ ("tol", Json.Num 1e-6) ])
  with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      Alcotest.(check (float 0.0)) "tol overridden" 1e-6 c.Cnt_spice.Engine.tol;
      Alcotest.(check bool)
        "rest is base" true
        ({ c with Cnt_spice.Engine.tol = Cnt_spice.Engine.default_config.tol }
        = Cnt_spice.Engine.default_config)

(* Keys outside the decoded set are an error naming the key, never a
   silent run on the base config: a misspelling, the retired [cache],
   [assembly], [backend], [ordering] and [jobs] keys, an unknown
   homotopy field, and a [config] or [homotopy] that is not an
   object.  So is a value out of
   [Engine.check_config]'s range.  [null] still means "inherit". *)
let bad_configs =
  [
    ("{\"modle\":\"vs\"}", "modle");
    ("{\"cache\":\"4096\"}", "cache");
    ("{\"assembly\":\"scalar\"}", "assembly");
    ("{\"backend\":\"dense\"}", "backend");
    ("{\"ordering\":\"amd\"}", "ordering");
    ("{\"jobs\":2}", "jobs");
    ("{\"homotopy\":{\"gmin_step\":3}}", "homotopy.gmin_step");
    ("5", "config");
    ("{\"homotopy\":true}", "homotopy");
    ("{\"tol\":-1}", "tol");
    ("{\"tol\":0}", "tol");
    ("{\"gmin\":-1}", "gmin");
    ("{\"max_iter\":0}", "max_iter");
    ("{\"deadline_s\":-1}", "deadline_s");
  ]

let test_config_unknown_keys () =
  let base = Cnt_spice.Engine.default_config in
  let decode text =
    match Json.parse text with
    | Ok j -> Protocol.config_of_json ~base j
    | Error msg -> Alcotest.failf "test config %s: %s" text msg
  in
  List.iter
    (fun (text, key) ->
      match decode text with
      | Ok _ -> Alcotest.failf "config %s was accepted" text
      | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "error for %s names %S" text key)
            true (contains ~needle:key msg))
    bad_configs;
  List.iter
    (fun text ->
      match decode text with
      | Ok c -> Alcotest.(check bool) (text ^ " inherits") true (c = base)
      | Error msg -> Alcotest.failf "config %s rejected: %s" text msg)
    [
      "{}"; "{\"model\":null}"; "{\"homotopy\":null}";
      "{\"homotopy\":{\"damped\":null}}";
    ]

let test_table_roundtrip () =
  let stats =
    Cnt_spice.Mna.fresh_stats ~backend:"sparse" ~unknowns:7 ~nonzeros:23
  in
  stats.newton_iterations <- 42;
  stats.residual <- 3.0e-13;
  let table =
    {
      Cnt_spice.Engine.analysis_label = "dc vin 0 0.6 0.1";
      columns = [| "vin"; "v(out)" |];
      rows = [| [| 0.0; 0.5999999999999994 |]; [| 0.1; Float.nan |] |];
      stats;
    }
  in
  match Protocol.table_of_json (Protocol.table_to_json table) with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
      Alcotest.(check string) "label" table.analysis_label t.analysis_label;
      Alcotest.(check bool) "columns" true (t.columns = table.columns);
      Alcotest.(check bool)
        "row bits survive" true
        (Array.for_all2
           (fun a b ->
             Array.for_all2
               (fun x y ->
                 Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
               a b)
           table.rows t.rows);
      Alcotest.(check int) "stats iterations" 42 t.stats.newton_iterations;
      Alcotest.(check string) "stats backend" "sparse" t.stats.backend

let test_request_errors () =
  let kind line =
    match Protocol.parse_request line with
    | Ok _ -> "ok"
    | Error { code; _ } -> code
  in
  Alcotest.(check string) "garbage" "bad_json" (kind "{nope");
  Alcotest.(check string) "wrong version" "unsupported_rpc"
    (kind "{\"rpc\":\"cnt-rpc/99\",\"op\":\"run\"}");
  Alcotest.(check string) "no rpc tag" "bad_request" (kind "{\"op\":\"run\"}");
  Alcotest.(check string) "unknown op" "bad_request"
    (kind "{\"rpc\":\"cnt-rpc/1\",\"op\":\"explode\"}");
  Alcotest.(check string) "run without deck" "bad_request"
    (kind "{\"rpc\":\"cnt-rpc/1\",\"op\":\"run\",\"id\":\"1\"}")

let test_event_roundtrip () =
  let events =
    [
      Cnt_obs.Progress.Analysis_start { analysis = "dc"; label = "dc vin" };
      Cnt_obs.Progress.Analysis_finish
        { analysis = "tran"; label = "tran 1n 1u"; points = 1001 };
      Cnt_obs.Progress.Sweep_point { k = 3; n = 7; value = 0.30000000000000004 };
      Cnt_obs.Progress.Tran_step
        { t = 1e-9; t_stop = 1e-6; accepted = 10; rejected = 2 };
      Cnt_obs.Progress.Sample { label = "mc"; i = 5; n = 100 };
      Cnt_obs.Progress.Rung_escalation
        { rung = "gmin-stepping"; sweep_point = Some 0.25 };
    ]
  in
  List.iter
    (fun ev ->
      let line = Cnt_obs.Progress.event_to_json ev in
      match Json.parse line with
      | Error msg -> Alcotest.failf "%s: %s" line msg
      | Ok j -> (
          match Protocol.event_of_json j with
          | None -> Alcotest.failf "%s: not decoded" line
          | Some ev' ->
              Alcotest.(check bool)
                (Printf.sprintf "event %s round-trips" line)
                true (ev = ev')))
    events

let test_listen_parsing () =
  (match Server.listen_of_string "/tmp/x.sock" with
  | Ok (Server.Unix_path "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix path");
  (match Server.listen_of_string "tcp:127.0.0.1:9797" with
  | Ok (Server.Tcp ("127.0.0.1", 9797)) -> ()
  | _ -> Alcotest.fail "tcp host:port");
  List.iter
    (fun s ->
      match Server.listen_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [ "tcp:"; "tcp:host"; "tcp:host:0"; "tcp:host:notaport"; "" ]

(* The line reader under any chunking of the stream: lines from empty
   to past the reader's 64 KiB keep size, some ending in CRLF, written
   in pieces of random size, come back whole and in order, then Eof;
   a line over the cap is Oversized. *)
let prop_reader_chunking =
  let open QCheck2.Gen in
  let line = pair (oneof [ int_range 0 100; int_range 0 5000; int_range 60000 150000 ]) bool in
  QCheck2.Test.make ~name:"line reader returns every line under any chunking" ~count:40
    (pair (list_size (int_range 1 6) line) (int_range 1 9000))
    (fun (lines, piece) ->
      let lines =
        List.mapi (fun i (n, crlf) -> (String.init n (fun j -> Char.chr (97 + ((i + j) mod 26))), crlf)) lines
      in
      let stream =
        String.concat "" (List.map (fun (l, crlf) -> l ^ if crlf then "\r\n" else "\n") lines)
      in
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let writer =
        Thread.create
          (fun () ->
            let n = String.length stream in
            let off = ref 0 in
            while !off < n do
              let k = min piece (n - !off) in
              ignore (Unix.write_substring a stream !off k);
              off := !off + k
            done;
            Unix.close a)
          ()
      in
      let r = Server.reader b in
      let read () = Server.read_line r ~max_bytes:200_000 in
      let got = List.map (fun _ -> read ()) lines in
      let last = read () in
      Thread.join writer;
      Unix.close b;
      (got = List.map (fun (l, _) -> Server.Line l) lines && last = Server.Eof)
      || QCheck2.Test.fail_report "a line came back wrong")

let test_reader_cap () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  ignore (Unix.write_substring a "short\n" 0 6);
  let r = Server.reader b in
  Alcotest.(check bool) "a line under the cap" true (Server.read_line r ~max_bytes:5 = Server.Line "short");
  let long = String.make 3000 'x' ^ "\n" in
  ignore (Unix.write_substring a long 0 (String.length long));
  Alcotest.(check bool) "a line over the cap" true (Server.read_line r ~max_bytes:2000 = Server.Oversized)

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle helpers                                            *)
(* ------------------------------------------------------------------ *)

let cntd = exe "cntd"
let cspice = exe "cspice"

let fresh_sock () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cntd-test-%d-%d.sock" (Unix.getpid ()) (Random.int 100000))
  in
  if Sys.file_exists path then Sys.remove path;
  path

(* Spawn a daemon, wait for its socket, run the body, then SIGTERM and
   assert the graceful-drain exit 0 — every daemon test doubles as a
   drain test.  The daemon's stderr goes to [stderr_to], else
   nowhere. *)
let with_daemon ?(args = []) ?(stderr_to = "/dev/null") body =
  let sock = fresh_sock () in
  let err = Unix.openfile stderr_to [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let pid =
    Unix.create_process cntd
      (Array.of_list (("cntd" :: "--listen" :: sock :: args)))
      Unix.stdin Unix.stdout err
  in
  Unix.close err;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_sock () =
    if Sys.file_exists sock then ()
    else if Unix.gettimeofday () > deadline then begin
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      Alcotest.fail "daemon did not come up within 10s"
    end
    else begin
      Unix.sleepf 0.02;
      wait_sock ()
    end
  in
  wait_sock ();
  let finished = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !finished then begin
        (* body failed: don't leave the daemon behind *)
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end)
  @@ fun () ->
  body sock;
  finished := true;
  Unix.kill pid Sys.sigterm;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool)
    "SIGTERM drains to exit 0" true
    (status = Unix.WEXITED 0)

(* Raw socket client for protocol-level tests. *)
let raw_connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  fd

let raw_send fd line =
  let s = line ^ "\n" in
  ignore (Unix.write_substring fd s 0 (String.length s))

let raw_read_line fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> None
    | _ ->
        if Bytes.get b 0 = '\n' then Some (Buffer.contents buf)
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
  in
  go ()

let error_kind_of_frame line =
  match Json.parse line with
  | Error msg -> Alcotest.failf "unparseable frame %s: %s" line msg
  | Ok j -> (
      match
        Option.bind (Json.member "error" j) (fun e ->
            Option.bind (Json.member "kind" e) Json.to_str)
      with
      | Some k -> k
      | None -> Alcotest.failf "frame has no error kind: %s" line)

(* ------------------------------------------------------------------ *)
(* Byte parity: --connect vs offline                                   *)
(* ------------------------------------------------------------------ *)

let check_parity sock name =
  let offline = run_command (Printf.sprintf "%s %s" cspice (deck name)) in
  let online =
    run_command (Printf.sprintf "%s --connect %s %s" cspice sock (deck name))
  in
  let code_off, out_off, _ = offline and code_on, out_on, _ = online in
  Alcotest.(check int) (name ^ " offline exit") 0 code_off;
  Alcotest.(check int) (name ^ " connect exit") 0 code_on;
  Alcotest.(check string) (name ^ " stdout byte-identical") out_off out_on

let test_connect_parity () =
  with_daemon @@ fun sock ->
  check_parity sock "golden_divider";
  check_parity sock "golden_inverter";
  (* second pass runs warm (deck + compile cache hits): still identical *)
  check_parity sock "golden_divider";
  check_parity sock "golden_inverter"

let test_connect_parity_concurrent () =
  with_daemon @@ fun sock ->
  let offline =
    let code, out, _ =
      run_command (Printf.sprintf "%s %s" cspice (deck "golden_inverter"))
    in
    Alcotest.(check int) "offline exit" 0 code;
    out
  in
  let outs = Array.make 8 "" in
  let threads =
    Array.init 8 (fun i ->
        Thread.create
          (fun () ->
            let _, out, _ =
              run_command
                (Printf.sprintf "%s --connect %s %s" cspice sock
                   (deck "golden_inverter"))
            in
            outs.(i) <- out)
          ())
  in
  Array.iter Thread.join threads;
  Array.iteri
    (fun i out ->
      Alcotest.(check string)
        (Printf.sprintf "concurrent client %d byte-identical" i)
        offline out)
    outs

let test_connect_error_parity () =
  with_daemon @@ fun sock ->
  (* a deck that cannot parse: same exit and same stderr first line as
     offline *)
  let bad = Filename.temp_file "cnt_server_bad" ".cir" in
  let oc = open_out bad in
  output_string oc "bad deck\nR1 a b not_a_number\n.end\n";
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove bad) @@ fun () ->
  let code_off, _, err_off =
    run_command (Printf.sprintf "%s %s" cspice bad)
  in
  let code_on, _, err_on =
    run_command (Printf.sprintf "%s --connect %s %s" cspice sock bad)
  in
  Alcotest.(check int) "parse error exit parity (2)" code_off code_on;
  Alcotest.(check string) "parse error stderr parity" err_off err_on

(* Each deck is rejected with exit 2 and a diagnostic of [kind], the
   same bytes offline and through the daemon; a parse error shows its
   caret. *)
let check_error_parity decks =
  with_daemon @@ fun sock ->
  List.iter
    (fun (name, kind) ->
      let path = in_test_dir (Filename.concat "corpus" (name ^ ".cir")) in
      let code_off, _, err_off = run_command (Printf.sprintf "%s %s" cspice path) in
      let code_on, _, err_on =
        run_command (Printf.sprintf "%s --connect %s %s" cspice sock path)
      in
      Alcotest.(check int) (name ^ " offline exit 2") 2 code_off;
      Alcotest.(check int) (name ^ " connect exit 2") 2 code_on;
      Alcotest.(check bool)
        (name ^ " is a " ^ kind) true
        (contains ~needle:kind err_off
        && (kind <> "parse error: " || contains ~needle:"^" err_off));
      Alcotest.(check string) (name ^ " stderr byte-identical") err_off err_on)
    decks

(* A print item that names nothing in the circuit, or a drain current
   in an .ac deck, is a located parse error. *)
let test_print_error_parity () =
  check_error_parity
    (List.map
       (fun name -> (name, "parse error: "))
       [
         "bad_print_no_device"; "bad_print_not_cnfet"; "bad_print_no_node";
         "bad_print_no_source"; "bad_ac_id";
       ])

(* An element or a waveform the circuit rejects is a located parse
   error at its card; a circuit with no ground is a deck error. *)
let test_circuit_error_parity () =
  check_error_parity
    (List.map
       (fun name -> (name, "parse error: "))
       [
         "bad_duplicate_name"; "bad_nonpositive_value"; "bad_negative_length";
         "bad_pulse"; "bad_sin"; "bad_pwl";
       ]
    @ [ ("bad_no_ground", "deck error: ") ])

let test_connect_refused () =
  let code, _, err =
    run_command
      (Printf.sprintf "%s --connect /tmp/no-such-daemon.sock %s" cspice
         (deck "golden_divider"))
  in
  Alcotest.(check int) "no daemon -> exit 4" 4 code;
  Alcotest.(check bool)
    "names the failure" true
    (contains ~needle:"cannot connect" err)

(* ------------------------------------------------------------------ *)
(* Protocol edge cases against a live daemon                           *)
(* ------------------------------------------------------------------ *)

let ping_works sock label =
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  raw_send fd (Protocol.encode_ping ~id:"p");
  match raw_read_line fd with
  | Some line ->
      Alcotest.(check bool)
        (label ^ ": daemon still answers pings")
        true
        (contains ~needle:"\"frame\":\"pong\"" line)
  | None -> Alcotest.failf "%s: daemon closed on ping" label

let test_edge_cases () =
  with_daemon ~args:[ "--max-request"; "4096" ] @@ fun sock ->
  (* malformed JSON: structured error, connection stays usable *)
  let fd = raw_connect sock in
  raw_send fd "{this is not json";
  (match raw_read_line fd with
  | Some line ->
      Alcotest.(check string) "malformed json kind" "bad_json"
        (error_kind_of_frame line)
  | None -> Alcotest.fail "no reply to malformed JSON");
  (* same connection still serves the next request *)
  raw_send fd (Protocol.encode_ping ~id:"after-bad");
  (match raw_read_line fd with
  | Some line ->
      Alcotest.(check bool)
        "connection survives bad JSON" true
        (contains ~needle:"\"frame\":\"pong\"" line)
  | None -> Alcotest.fail "connection dropped after bad JSON");
  Unix.close fd;
  (* unknown rpc version *)
  let fd = raw_connect sock in
  raw_send fd "{\"rpc\":\"cnt-rpc/99\",\"op\":\"run\",\"id\":\"v\"}";
  (match raw_read_line fd with
  | Some line ->
      Alcotest.(check string) "unknown schema version kind" "unsupported_rpc"
        (error_kind_of_frame line)
  | None -> Alcotest.fail "no reply to unknown rpc version");
  Unix.close fd;
  (* oversized request line *)
  let fd = raw_connect sock in
  raw_send fd (String.make 10000 'x');
  (match raw_read_line fd with
  | Some line ->
      Alcotest.(check string) "oversized kind" "oversized"
        (error_kind_of_frame line)
  | None -> Alcotest.fail "no reply to oversized line");
  Unix.close fd;
  ping_works sock "after edge cases"

(* The same rejections end to end: the daemon answers a run with a bad
   config by a [bad_request] error frame that names the key, before it
   accepts the deck, and a [null] config runs on the daemon's base. *)
let test_unknown_config_over_wire () =
  with_daemon @@ fun sock ->
  let run_frame config =
    Printf.sprintf
      "{\"rpc\":\"cnt-rpc/1\",\"op\":\"run\",\"id\":\"k\",\"deck\":{\"text\":%s},\"config\":%s}"
      (Json.to_string (Json.Str "t\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n"))
      config
  in
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  List.iter
    (fun (config, key) ->
      raw_send fd (run_frame config);
      match raw_read_line fd with
      | Some line ->
          Alcotest.(check string) (config ^ " kind") "bad_request"
            (error_kind_of_frame line);
          Alcotest.(check bool)
            (Printf.sprintf "%s reply names %S" config key)
            true (contains ~needle:key line)
      | None -> Alcotest.failf "no reply to config %s" config)
    bad_configs;
  raw_send fd (run_frame "null");
  (match raw_read_line fd with
  | Some line ->
      Alcotest.(check bool) "null config accepted" true
        (contains ~needle:"\"frame\":\"accepted\"" line)
  | None -> Alcotest.fail "no reply to a null config");
  match raw_read_line fd with
  | Some line ->
      Alcotest.(check bool) "null config runs" true
        (contains ~needle:"\"status\":\"ok\"" line)
  | None -> Alcotest.fail "no result for a null config"

let test_disconnect_mid_request () =
  with_daemon @@ fun sock ->
  let text = read_file (deck "golden_inverter") in
  (* fire a run with progress streaming and slam the connection shut
     before the result can arrive *)
  let fd = raw_connect sock in
  raw_send fd
    (Protocol.encode_run ~id:"gone" ~deck:(Protocol.Deck_text { text; file = None })
       ~config:Cnt_spice.Engine.default_config ~progress:true);
  Unix.close fd;
  Unix.sleepf 0.2;
  ping_works sock "after mid-request disconnect";
  (* and real work still round-trips *)
  check_parity sock "golden_divider"

(* [requests_served] counts every request answered with a result frame,
   ok or error: decks that do not parse and frames that are not JSON
   count, pings do not.  The ping's count and the drain line agree. *)
let test_requests_served () =
  let log = Filename.temp_file "cntd_served" ".err" in
  Fun.protect ~finally:(fun () -> Sys.remove log) @@ fun () ->
  let bad = [ "t\nR1 a b not_a_number\n.op\n.end\n"; "t\nV1 a 0 1\nR1 a 0 1k\n.op\n.print id(m1)\n.end\n" ] in
  let good = [ "t\nV1 a 0 1\nR1 a 0 1k\n.op\n.end\n"; "t\nV1 a 0 2\nR1 a 0 1k\n.op\n.end\n" ] in
  let answered = List.length bad + 1 + List.length good in
  (with_daemon ~stderr_to:log @@ fun sock ->
   let fd = raw_connect sock in
   Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
   let rec result () =
     match raw_read_line fd with
     | None -> Alcotest.fail "daemon closed before the result"
     | Some line when contains ~needle:"\"frame\":\"result\"" line -> line
     | Some _ -> result ()
   in
   let run text =
     raw_send fd
       (Protocol.encode_run ~id:"r" ~deck:(Protocol.Deck_text { text; file = None })
          ~config:Cnt_spice.Engine.default_config ~progress:false);
     result ()
   in
   List.iter
     (fun text ->
       Alcotest.(check string) "bad deck kind" "parse" (error_kind_of_frame (run text)))
     bad;
   raw_send fd "{not json";
   Alcotest.(check string) "bad frame kind" "bad_json" (error_kind_of_frame (result ()));
   List.iter
     (fun text ->
       Alcotest.(check bool) "good deck runs" true
         (contains ~needle:"\"status\":\"ok\"" (run text)))
     good;
   raw_send fd (Protocol.encode_ping ~id:"p");
   match Option.map Json.parse (raw_read_line fd) with
   | Some (Ok pong) ->
       Alcotest.(check (option int)) "ping reports every answered request"
         (Some answered)
         (Option.bind (Json.member "server" pong) (fun s ->
              Option.bind (Json.member "requests_served" s) Json.to_int))
   | _ -> Alcotest.fail "no pong");
  Alcotest.(check bool) "drain line reports every answered request" true
    (contains ~needle:(Printf.sprintf "stopped after %d requests" answered) (read_file log))

let test_deadline_over_wire () =
  with_daemon @@ fun sock ->
  let code, _, err =
    run_command
      (Printf.sprintf "%s --connect %s --deadline 1e-9 %s" cspice sock
         (deck "golden_inverter"))
  in
  Alcotest.(check int) "deadline exit 5" 5 code;
  Alcotest.(check bool)
    "structured deadline message" true
    (contains ~needle:"deadline exceeded" err)

let test_deadline_offline () =
  let code, _, err =
    run_command
      (Printf.sprintf "%s --deadline 1e-9 %s" cspice (deck "golden_inverter"))
  in
  Alcotest.(check int) "offline deadline exit 5" 5 code;
  Alcotest.(check bool)
    "offline deadline message" true
    (contains ~needle:"deadline exceeded" err)

(* ------------------------------------------------------------------ *)
(* Cache sharing across requests                                       *)
(* ------------------------------------------------------------------ *)

let test_warm_cache_reported () =
  with_daemon @@ fun sock ->
  let report = Filename.temp_file "cnt_server_report" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove report) @@ fun () ->
  let run () =
    run_command
      (Printf.sprintf "%s --connect %s --report %s %s" cspice sock report
         (deck "golden_inverter"))
  in
  let code, _, _ = run () in
  Alcotest.(check int) "first run ok" 0 code;
  let first = read_file report in
  Alcotest.(check bool)
    "first run is a deck-cache miss" true
    (contains ~needle:"\"deck_cache\":\"miss\"" first);
  let code, _, _ = run () in
  Alcotest.(check int) "second run ok" 0 code;
  let second = read_file report in
  Alcotest.(check bool)
    "second run is a deck-cache hit" true
    (contains ~needle:"\"deck_cache\":\"hit\"" second);
  Alcotest.(check bool)
    "second run reuses the compiled template" true
    (contains ~needle:"\"compile_cache\":\"hit\"" second);
  Alcotest.(check bool)
    "manifest names the daemon version" true
    (contains ~needle:"\"version\":\"" second)

(* The per-request compile_cache echo under contention.  A slow request
   holds the run mutex through a long DC sweep, then compiles its
   circuit again for its second analysis — a compile-cache hit.  A
   fresh deck queued behind it is a compile miss, and its reply must
   say so: the process-wide hit counter moves while the fresh request
   waits, so a counter read taken before the run mutex credits it with
   the slow request's hit. *)
let test_compile_echo_queued () =
  with_daemon @@ fun sock ->
  let slow =
    String.concat "\n"
      ([ "slow chain"; ".subckt inv in out vdd"; "MP out in vdd PCNFET";
         "MN out in 0 CNFET"; ".ends"; "VDD vdd 0 0.6"; "VIN n0 0 0" ]
      @ List.init 200 (fun i ->
            Printf.sprintf "X%d n%d n%d vdd inv" (i + 1) i (i + 1))
      @ [ ".dc VIN 0 0.6 0.005"; ".op"; ".print v(n200)"; ".end"; "" ])
  in
  let fresh = "fresh divider\nV1 a 0 1\nR1 a b 1k\nR2 b 0 1k\n.op\n.end\n" in
  let send ~progress ~id text =
    let fd = raw_connect sock in
    raw_send fd
      (Protocol.encode_run ~id ~deck:(Protocol.Deck_text { text; file = None })
         ~config:Cnt_spice.Engine.default_config ~progress);
    fd
  in
  let rec read_frame fd kind =
    match raw_read_line fd with
    | None -> Alcotest.failf "connection closed before a %s frame" kind
    | Some line ->
        if contains ~needle:(Printf.sprintf "\"frame\":\"%s\"" kind) line
        then line
        else read_frame fd kind
  in
  let echo_is label fd outcome =
    let line = read_frame fd "result" in
    Unix.close fd;
    Alcotest.(check bool)
      (Printf.sprintf "%s reports compile_cache %s" label outcome)
      true
      (contains
         ~needle:(Printf.sprintf "\"compile_cache\":\"%s\"" outcome)
         line)
  in
  let fd_slow = send ~progress:true ~id:"slow" slow in
  (* progress frames come from inside the run mutex *)
  ignore (read_frame fd_slow "progress");
  let fd_fresh = send ~progress:false ~id:"fresh" fresh in
  ignore (read_frame fd_fresh "accepted");
  echo_is "slow deck (second analysis recompiles)" fd_slow "hit";
  echo_is "fresh deck queued behind it" fd_fresh "miss"

let test_busy_drain () =
  (* SIGTERM with a request in flight: the result must still arrive and
     the daemon must still exit 0 (checked by with_daemon) *)
  with_daemon @@ fun sock ->
  let text = read_file (deck "golden_inverter") in
  let fd = raw_connect sock in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  raw_send fd
    (Protocol.encode_run ~id:"drain" ~deck:(Protocol.Deck_text { text; file = None })
       ~config:Cnt_spice.Engine.default_config ~progress:false);
  let rec read_until_result () =
    match raw_read_line fd with
    | None -> Alcotest.fail "connection closed before result"
    | Some line ->
        if contains ~needle:"\"frame\":\"result\"" line then line
        else read_until_result ()
  in
  let result = read_until_result () in
  Alcotest.(check bool)
    "in-flight request completes" true
    (contains ~needle:"\"status\":\"ok\"" result)

(* ------------------------------------------------------------------ *)
(* --version                                                           *)
(* ------------------------------------------------------------------ *)

let test_version_flags () =
  List.iter
    (fun tool ->
      let code, out, _ = run_command (Printf.sprintf "%s --version" (exe tool)) in
      Alcotest.(check int) (tool ^ " --version exits 0") 0 code;
      Alcotest.(check bool)
        (tool ^ " --version prints the version")
        true
        (contains ~needle:Cnt_obs.Version.version out))
    [ "cspice"; "cntd"; "repro"; "cnt_char" ]

let test_version_module () =
  Alcotest.(check bool)
    "tool_line carries tool and version" true
    (contains
       ~needle:Cnt_obs.Version.version
       (Cnt_obs.Version.tool_line "cspice"))

(* ------------------------------------------------------------------ *)

let () =
  Random.self_init ();
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "float bits round-trip" `Quick
            test_json_float_roundtrip;
          Alcotest.test_case "parser rejects garbage" `Quick
            test_json_parse_rejects;
          Alcotest.test_case "string escapes" `Quick test_json_string_escapes;
          QCheck_alcotest.to_alcotest prop_num_text;
          QCheck_alcotest.to_alcotest prop_parse_documents;
          QCheck_alcotest.to_alcotest prop_parse_mutated_frames;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "config round-trip" `Quick test_config_roundtrip;
          Alcotest.test_case "config partial override" `Quick
            test_config_partial_override;
          Alcotest.test_case "config rejects unknown keys" `Quick
            test_config_unknown_keys;
          Alcotest.test_case "table round-trip" `Quick test_table_roundtrip;
          Alcotest.test_case "request errors" `Quick test_request_errors;
          Alcotest.test_case "progress event round-trip" `Quick
            test_event_roundtrip;
          Alcotest.test_case "listen address parsing" `Quick
            test_listen_parsing;
          QCheck_alcotest.to_alcotest prop_reader_chunking;
          Alcotest.test_case "line reader cap" `Quick test_reader_cap;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "connect parity (golden decks)" `Quick
            test_connect_parity;
          Alcotest.test_case "connect parity x8 concurrent" `Quick
            test_connect_parity_concurrent;
          Alcotest.test_case "parse-error parity" `Quick
            test_connect_error_parity;
          Alcotest.test_case "print-item error parity" `Quick
            test_print_error_parity;
          Alcotest.test_case "circuit-rejection error parity" `Quick
            test_circuit_error_parity;
          Alcotest.test_case "requests_served counts every answer" `Quick
            test_requests_served;
          Alcotest.test_case "connect refused -> exit 4" `Quick
            test_connect_refused;
          Alcotest.test_case "protocol edge cases" `Quick test_edge_cases;
          Alcotest.test_case "unknown config keys over the wire" `Quick
            test_unknown_config_over_wire;
          Alcotest.test_case "disconnect mid-request" `Quick
            test_disconnect_mid_request;
          Alcotest.test_case "deadline over the wire (exit 5)" `Quick
            test_deadline_over_wire;
          Alcotest.test_case "deadline offline (exit 5)" `Quick
            test_deadline_offline;
          Alcotest.test_case "warm caches reported" `Quick
            test_warm_cache_reported;
          Alcotest.test_case "queued compile_cache echo" `Quick
            test_compile_echo_queued;
          Alcotest.test_case "busy SIGTERM drain" `Quick test_busy_drain;
        ] );
      ( "version",
        [
          Alcotest.test_case "--version on every tool" `Quick
            test_version_flags;
          Alcotest.test_case "version module" `Quick test_version_module;
        ] );
    ]
