(* Deck-corpus harness for the netlist front end (docs/NETLIST.md).

   Every deck under test/corpus/ is run through the cspice CLI from
   the test directory (so the paths embedded in diagnostics are the
   stable relative "corpus/NAME.cir") and compared byte-for-byte
   against test/corpus/expected/NAME.out (stdout of a successful run)
   or NAME.err (stderr of an exit-2 parse failure, including the
   file:line:col location and caret excerpt).  Regenerate the goldens
   with

     CNT_BLESS=1 dune exec test/test_corpus.exe

   from the project root after an intentional change.

   The suite also pins the parser's non-CLI contracts: subcircuit
   patterns compile once per parameter binding (Obs counters),
   identical CNFET cards share one physical device model, Netlist.emit
   round-trips to bit-identical result tables on every device-model
   backend, and the expression evaluator agrees bitwise
   with a reference evaluator on random expression trees. *)

open Cnt_spice
module Obs = Cnt_obs.Obs

(* A stray CNT_MODEL override would change the numbers the corpus
   goldens pin (and those of the cspice child processes we spawn);
   the empty string counts as unset. *)
let () = Unix.putenv "CNT_MODEL" ""

let test_dir = Filename.dirname Sys.executable_name
let in_test_dir f = Filename.concat test_dir f
let blessing = Sys.getenv_opt "CNT_BLESS" = Some "1"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Corpus goldens                                                      *)
(* ------------------------------------------------------------------ *)

(* Decks that must parse and solve: exit 0, stdout pinned, stderr
   silent. *)
let good_decks =
  [
    "param_divider";
    "param_redefine";
    "hier_ladder";
    "hier_param_cnfet";
    "hier_override";
    "include_main";
    "vs_inverter";
    "vs_hier";
    "expr_sources";
    "units_expr";
    "array_ladder";
  ]

(* Decks that must be rejected: exit 2, stdout silent, the located
   diagnostic on stderr pinned. *)
let bad_decks =
  [
    "bad_unknown_card";
    "bad_number";
    "bad_undefined_param";
    "bad_forward_ref";
    "bad_expr";
    "bad_include_missing";
    "bad_include_cycle";
    "bad_continuation";
    "bad_subckt_port";
    "bad_override";
    "bad_spaced_override";
    "bad_nonfinite";
    "bad_print_no_device";
    "bad_print_not_cnfet";
    "bad_print_no_node";
    "bad_print_no_source";
  ]

(* Run cspice on corpus/NAME.cir with the test directory as cwd so
   the deck path (and hence every location in the diagnostics) is
   identical on every machine.  Under [dune runtest] the stanza's deps
   stage the corpus next to the executable; in bless mode (dune exec
   from the project root) the source tree is used directly so a fresh
   checkout can regenerate goldens without a prior test run. *)
let run_cspice name =
  let run_dir, exe =
    if blessing then ("test", "../_build/default/bin/cspice.exe")
    else (test_dir, "../bin/cspice.exe")
  in
  let out = Filename.temp_file "cnt_corpus" ".out" in
  let err = Filename.temp_file "cnt_corpus" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "cd %s && %s corpus/%s.cir > %s 2> %s"
         (Filename.quote run_dir) exe name (Filename.quote out)
         (Filename.quote err))
  in
  let stdout_text = read_file out and stderr_text = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout_text, stderr_text)

let check_corpus_golden ~ext ~name actual =
  let rel = Filename.concat "expected" (name ^ ext) in
  if blessing then begin
    let dir = Filename.concat "test" "corpus" in
    if not (Sys.file_exists (Filename.concat dir "expected")) then
      Sys.mkdir (Filename.concat dir "expected") 0o755;
    write_file (Filename.concat dir rel) actual;
    Printf.printf "blessed test/corpus/%s (%d bytes)\n%!" rel
      (String.length actual)
  end
  else begin
    let path = in_test_dir (Filename.concat "corpus" rel) in
    let expected =
      try read_file path
      with Sys_error _ ->
        Alcotest.failf
          "missing corpus golden %s (regenerate with CNT_BLESS=1 dune exec \
           test/test_corpus.exe from the project root)"
          path
    in
    if expected <> actual then
      Alcotest.failf
        "%s%s: output differs from golden\n--- expected ---\n%s--- actual \
         ---\n%s(regenerate with CNT_BLESS=1 dune exec test/test_corpus.exe \
         if the change is intentional)"
        name ext expected actual
  end

let test_good_deck name () =
  let code, out, err = run_cspice name in
  if code <> 0 then
    Alcotest.failf "corpus/%s.cir exited %d\nstderr:\n%s" name code err;
  Alcotest.(check string) "stderr silent" "" err;
  check_corpus_golden ~ext:".out" ~name out

let test_bad_deck name () =
  let code, out, err = run_cspice name in
  if code <> 2 then
    Alcotest.failf "corpus/%s.cir exited %d (wanted 2)\nstderr:\n%s" name
      code err;
  Alcotest.(check string) "stdout silent" "" out;
  check_corpus_golden ~ext:".err" ~name err

(* ------------------------------------------------------------------ *)
(* Subcircuit pattern sharing (compile counters, model identity)       *)
(* ------------------------------------------------------------------ *)

let counter name = Obs.value (Obs.counter name)

(* A ladder of [n] identical parameterized instances. *)
let ladder_text n =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "pattern ladder\n.param r = 1k\n.subckt seg a b r=1k\nR1 a b {r}\n.ends\n\
     V1 n0 0 1\n";
  for i = 1 to n do
    Printf.bprintf b "X%d n%d n%d seg r={r}\n" i (i - 1) i
  done;
  Printf.bprintf b "RL n%d 0 1k\n.op\n.print v(n%d)\n.end\n" n n;
  Buffer.contents b

let pattern_deltas text =
  Obs.enable ();
  let c0 = counter "parse.subckt.pattern_compiles" in
  let h0 = counter "parse.subckt.pattern_hits" in
  let i0 = counter "parse.subckt.instances" in
  let deck = Parser.parse text in
  ( deck,
    counter "parse.subckt.pattern_compiles" - c0,
    counter "parse.subckt.pattern_hits" - h0,
    counter "parse.subckt.instances" - i0 )

let test_pattern_compiles_once () =
  let deck, compiles, hits, instances = pattern_deltas (ladder_text 100) in
  Alcotest.(check int) "one pattern compile for 100 instances" 1 compiles;
  Alcotest.(check int) "99 pattern cache hits" 99 hits;
  Alcotest.(check int) "100 instances expanded" 100 instances;
  Alcotest.(check int) "102 flat elements" 102
    (List.length (Circuit.elements deck.Parser.circuit))

let test_pattern_per_binding () =
  (* two distinct parameter bindings -> exactly two compiles *)
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "pattern bindings\n.subckt seg a b r=1k\nR1 a b {r}\n.ends\nV1 n0 0 1\n";
  for i = 1 to 100 do
    Printf.bprintf b "X%d n%d n%d seg r=%dk\n" i (i - 1) i
      (if i mod 2 = 0 then 1 else 2)
  done;
  Buffer.add_string b "RL n100 0 1k\n.op\n.end\n";
  let _, compiles, hits, instances = pattern_deltas (Buffer.contents b) in
  Alcotest.(check int) "two bindings, two compiles" 2 compiles;
  Alcotest.(check int) "98 hits" 98 hits;
  Alcotest.(check int) "100 instances" 100 instances

let test_instances_share_model () =
  (* every expanded CNFET card is identical, so the device-model memo
     must hand back the physically same model for all of them *)
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "pattern devices\n.subckt cell in out vdd r=50k\nRP vdd out {r}\n\
     MN out in 0 CNFET\n.ends\nVDD vdd 0 0.6\nVIN in 0 0.3\n";
  for i = 1 to 50 do
    Printf.bprintf b "X%d in o%d vdd cell\n" i i;
    Printf.bprintf b "RO%d o%d 0 1meg\n" i i
  done;
  Buffer.add_string b ".op\n.end\n";
  let deck = Parser.parse (Buffer.contents b) in
  let models =
    List.filter_map
      (function
        | Circuit.Cnfet { params; _ } -> Some params.Circuit.model
        | _ -> None)
      (Circuit.elements deck.Parser.circuit)
  in
  Alcotest.(check int) "50 devices" 50 (List.length models);
  match models with
  | [] -> assert false
  | first :: rest ->
      List.iteri
        (fun i m ->
          if not (m == first) then
            Alcotest.failf "device %d has a distinct physical model" (i + 2))
        rest

(* ------------------------------------------------------------------ *)
(* Netlist.emit round trip                                             *)
(* ------------------------------------------------------------------ *)

(* Two hierarchical CNFET decks: the piecewise one round-trips through
   a "file=" model archive, the vs one through canonical card
   attributes ("model=vs ..."), exercising both emit paths. *)
let roundtrip_text ~device =
  Printf.sprintf
    "roundtrip hierarchical cell\n\
     .param rload = 60k\n\
     .subckt inv in out vdd r=50k\n\
     RP vdd out {r}\n\
     MN out in 0 %s\n\
     .ends\n\
     VDD vdd 0 0.6\n\
     VIN in 0 0\n\
     X1 in mid vdd inv r={rload}\n\
     X2 mid out vdd inv\n\
     .op\n\
     .dc VIN 0 0.6 0.2\n\
     .print v(mid) v(out)\n\
     .end\n"
    device

(* Bit-exact serialisation of result tables: any float wobble between
   the original and re-parsed deck shows up as a string diff. *)
let tables_signature tables =
  let float_bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
  tables
  |> List.map (fun t ->
         Printf.sprintf "%s[%s]{%s}" t.Engine.analysis_label
           (String.concat "," (Array.to_list t.Engine.columns))
           (String.concat ";"
              (Array.to_list
                 (Array.map
                    (fun row ->
                      String.concat ","
                        (List.map float_bits (Array.to_list row)))
                    t.Engine.rows))))
  |> String.concat "|"

let run_tables ~model deck =
  let config = Engine.config ~model () in
  match Engine.run_deck_result ~config deck with
  | Ok tables -> tables_signature tables
  | Error err -> Alcotest.failf "run failed: %s" (Diag.error_message err)

let test_roundtrip ~device ~model () =
  let deck = Parser.parse (roundtrip_text ~device) in
  let model_dir =
    Filename.concat (Filename.get_temp_dir_name ()) "cnt_corpus_models"
  in
  let emitted =
    Netlist.emit ~title:deck.Parser.title ~analyses:deck.Parser.analyses
      ~prints:deck.Parser.prints ~model_dir deck.Parser.circuit
  in
  let deck2 = Parser.parse ~file:"<emitted>" emitted in
  Alcotest.(check string)
    (Printf.sprintf "tables bit-identical (model=%s)" model)
    (run_tables ~model deck)
    (run_tables ~model deck2)

(* ------------------------------------------------------------------ *)
(* Expression evaluator vs a reference evaluator                       *)
(* ------------------------------------------------------------------ *)

let eval_ok text =
  match Parser.eval_expr text with
  | Ok v -> v
  | Error msg -> Alcotest.failf "eval_expr %S: %s" text msg

let check_bits what expected actual =
  if Int64.bits_of_float expected <> Int64.bits_of_float actual then
    Alcotest.failf "%s: expected %h, got %h" what expected actual

(* Random expression trees.  The renderer parenthesises every node, so
   the parser performs the very same float operations in the very same
   order as [reference] — results must agree bitwise.  The one escape:
   when both operands of an addition are NaN, the hardware propagates
   whichever one the codegen left in the destination register, so any
   NaN is accepted as equal to any NaN. *)
type ast =
  | Num of float
  | Neg of ast
  | Bin of char * ast * ast

let rec render = function
  | Num f -> Printf.sprintf "%.17g" f
  | Neg a -> Printf.sprintf "(-%s)" (render a)
  | Bin (op, a, b) -> Printf.sprintf "(%s %c %s)" (render a) op (render b)

let rec reference = function
  | Num f -> f
  | Neg a -> -.reference a
  | Bin ('+', a, b) -> reference a +. reference b
  | Bin ('-', a, b) -> reference a -. reference b
  | Bin ('*', a, b) -> reference a *. reference b
  | Bin ('/', a, b) -> reference a /. reference b
  | Bin ('^', a, b) -> reference a ** reference b
  | Bin (op, _, _) -> invalid_arg (Printf.sprintf "reference: %c" op)

let gen_ast =
  let open QCheck2.Gen in
  let leaf = map (fun f -> Num (Float.abs f)) (float_range 0.0 1e4) in
  sized
  @@ fix (fun self n ->
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (2, map2 (fun a b -> Bin ('+', a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Bin ('-', a, b)) (self (n / 2)) (self (n / 2)));
               (2, map2 (fun a b -> Bin ('*', a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Bin ('/', a, b)) (self (n / 2)) (self (n / 2)));
               (1, map2 (fun a b -> Bin ('^', a, b)) (self (n / 2)) (self (n / 2)));
               (1, map (fun a -> Neg a) (self (n - 1)));
             ])

let prop_expr_matches_reference =
  QCheck2.Test.make ~name:"eval_expr agrees bitwise with reference evaluator"
    ~count:500 ~print:render gen_ast (fun t ->
      let text = render t in
      match Parser.eval_expr text with
      | Error msg -> QCheck2.Test.fail_reportf "eval_expr %S: %s" text msg
      | Ok v ->
          let r = reference t in
          if
            Int64.bits_of_float v = Int64.bits_of_float r
            || (Float.is_nan v && Float.is_nan r)
          then true
          else
            QCheck2.Test.fail_reportf "%S: reference %h, eval_expr %h" text r
              v)

(* The suffix table of docs/NETLIST.md, mirrored here so the property
   pins both the set of suffixes and their scale factors. *)
let suffixes =
  [
    ("f", 1e-15); ("p", 1e-12); ("n", 1e-9); ("u", 1e-6); ("m", 1e-3);
    ("k", 1e3); ("meg", 1e6); ("g", 1e9); ("t", 1e12);
  ]

let prop_suffix_scaling =
  QCheck2.Test.make ~name:"engineering suffixes scale literals"
    ~count:200
    QCheck2.Gen.(pair (float_range 0.0 1e3) (int_bound (List.length suffixes - 1)))
    (fun (f, i) ->
      let f = Float.abs f in
      let suffix, scale = List.nth suffixes i in
      let text = Printf.sprintf "%.17g%s" f suffix in
      match Parser.eval_expr text with
      | Error msg -> QCheck2.Test.fail_reportf "eval_expr %S: %s" text msg
      | Ok v ->
          if Int64.bits_of_float v = Int64.bits_of_float (f *. scale) then true
          else
            QCheck2.Test.fail_reportf "%S: expected %h, got %h" text
              (f *. scale) v)

let test_precedence_pins () =
  check_bits "2+3*4" 14.0 (eval_ok "2+3*4");
  check_bits "(2+3)*4" 20.0 (eval_ok "(2+3)*4");
  check_bits "2^3^2 right-assoc" 512.0 (eval_ok "2^3^2");
  check_bits "-2^2 binds tighter than unary minus" (-4.0) (eval_ok "-2^2");
  check_bits "2^-2" 0.25 (eval_ok "2^-2");
  check_bits "6/3/2 left-assoc" 1.0 (eval_ok "6/3/2");
  check_bits "2-3-4 left-assoc" (-5.0) (eval_ok "2-3-4");
  check_bits "unary plus" 3.0 (eval_ok "+3");
  check_bits "pi" Float.pi (eval_ok "pi");
  check_bits "sqrt(9)" 3.0 (eval_ok "sqrt(9)");
  check_bits "abs(-3)" 3.0 (eval_ok "abs(-3)");
  check_bits "min(1,2)" 1.0 (eval_ok "min(1,2)");
  check_bits "max(1,2)" 2.0 (eval_ok "max(1,2)");
  check_bits "pow(2,10)" 1024.0 (eval_ok "pow(2,10)");
  check_bits "braces" 2.0 (eval_ok "{1 + 1}");
  check_bits "quotes" 6.0 (eval_ok "'2*3'");
  check_bits "1meg" 1e6 (eval_ok "1meg");
  check_bits "1m is milli" 1e-3 (eval_ok "1m");
  check_bits "unit tail ignored" 1e3 (eval_ok "1kohm");
  match Parser.eval_expr ~params:[ ("rbase", 100.0) ] "2*rbase" with
  | Ok v -> check_bits "params binding" 200.0 v
  | Error msg -> Alcotest.failf "params binding: %s" msg

let test_expr_rejects () =
  let rejected text =
    match Parser.eval_expr text with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "eval_expr %S: expected an error, got %g" text v
  in
  rejected "";
  rejected "1 + * 2";
  rejected "1q";
  rejected "(1";
  rejected "foo(1)";
  rejected "min(1)";
  rejected "nosuchparam"

(* ------------------------------------------------------------------ *)
(* Lexer: located errors across continuation lines                     *)
(* ------------------------------------------------------------------ *)

(* The card lexer as it was before it tokenized over offsets, kept as
   the reference: join a card's segments with one space, keep a source
   location for every character (the separator takes its segment's
   first column), and cut tokens on spaces, tabs and commas outside
   (...), {...} and '...' groups.  Each token also records its offset
   in the joined text. *)
type ref_loc = { rline : int; rcol : int }

let ref_join_segments segs =
  let buf = Buffer.create 64 in
  let locs = ref [] in
  List.iteri
    (fun i (l0, text) ->
      if i > 0 then begin
        Buffer.add_char buf ' ';
        locs := l0 :: !locs
      end;
      String.iteri
        (fun j c ->
          Buffer.add_char buf c;
          locs := { l0 with rcol = l0.rcol + j } :: !locs)
        text)
    segs;
  (Buffer.contents buf, Array.of_list (List.rev !locs))

let ref_tokenize_joined (text, locs) =
  let n = String.length text in
  let buf = Buffer.create 16 in
  let toks = ref [] in
  let start = ref None in
  let paren = ref 0 and brace = ref 0 in
  let quoted = ref false in
  let flush () =
    match !start with
    | Some (off, at) when Buffer.length buf > 0 ->
        toks := (off, Buffer.contents buf, at) :: !toks;
        Buffer.clear buf;
        start := None
    | _ ->
        Buffer.clear buf;
        start := None
  in
  for i = 0 to n - 1 do
    let ch = text.[i] in
    let mark () = if !start = None then start := Some (i, locs.(i)) in
    if !quoted then begin
      Buffer.add_char buf ch;
      if ch = '\'' then quoted := false
    end
    else
      match ch with
      | '\'' ->
          mark ();
          quoted := true;
          Buffer.add_char buf ch
      | '(' ->
          mark ();
          incr paren;
          Buffer.add_char buf ch
      | ')' ->
          mark ();
          decr paren;
          Buffer.add_char buf ch
      | '{' ->
          mark ();
          incr brace;
          Buffer.add_char buf ch
      | '}' ->
          mark ();
          decr brace;
          Buffer.add_char buf ch
      | (' ' | '\t' | ',') when !paren = 0 && !brace = 0 -> flush ()
      | _ ->
          mark ();
          Buffer.add_char buf ch
  done;
  flush ();
  List.rev !toks

let rtrim s =
  let e = ref (String.length s) in
  while !e > 0 && (s.[!e - 1] = ' ' || s.[!e - 1] = '\t') do
    decr e
  done;
  String.sub s 0 !e

(* A resistor card "R1 n1 n2 value" cut into physical lines: the value
   is an expression with the unknown parameter zz planted at a random
   leaf; node tokens and separators mix balanced and unbalanced groups,
   tabs and commas; each continuation line has its own indentation.
   Returns the lines and the card's segments as the lexer sees them
   (location of the first content column, content). *)
let gen_split_card =
  let open QCheck2.Gen in
  let sep = oneofl [ " "; "\t"; ","; " , "; "  "; "\t,"; ", " ] in
  let node =
    oneofl
      [ "a"; "n1"; "out"; "x(1)"; "{b}"; "'q r'"; "m)"; "p("; "{c"; "d}"; "'e";
        "f,g"; "(h i)"; "j)k" ]
  in
  let blank = oneofl [ ""; " "; "  "; "\t"; " \t " ] in
  let num = oneofl [ "1"; "2.5"; "3k"; "4e-3"; "0.5meg" ] in
  let op = oneofl [ "+"; "-"; "*"; "/" ] in
  let* leaves = int_range 1 4 in
  let* zz_at = int_bound (leaves - 1) in
  let* nums = list_repeat leaves num in
  let* ops = list_repeat leaves op in
  let* spaced = bool in
  let* paren = bool in
  let* wrap = oneofl [ `Brace; `Quote; `Bare ] in
  let gap = if spaced && wrap <> `Bare then " " else "" in
  let expr =
    String.concat ""
      (List.concat
         (List.mapi
            (fun k n ->
              let leaf = if k = zz_at then "zz" else n in
              if k = 0 then [ leaf ] else [ gap; List.nth ops k; gap; leaf ])
            nums))
  in
  let expr = if paren then "(" ^ expr ^ ")" else expr in
  let value =
    match wrap with
    | `Brace -> "{" ^ expr ^ "}"
    | `Quote -> "'" ^ expr ^ "'"
    | `Bare -> expr
  in
  let* n1 = node and* n2 = node in
  let* s1 = sep and* s2 = sep and* s3 = sep in
  let card = String.concat "" [ "R1"; s1; n1; s2; n2; s3; value ] in
  (* up to three breaks anywhere after the card's first character *)
  let* breaks = list_size (int_bound 3) (int_range 1 (String.length card - 1)) in
  let breaks = List.sort_uniq compare breaks in
  let rec parts from = function
    | [] -> [ String.sub card from (String.length card - from) ]
    | b :: rest -> String.sub card from (b - from) :: parts b rest
  in
  let parts = parts 0 breaks in
  let* indents = list_repeat (List.length parts) blank in
  let* pads = list_repeat (List.length parts) blank in
  let lines, segs =
    List.split
      (List.mapi
         (fun k part ->
           let indent = List.nth indents k in
           let line = 2 + k in
           if k = 0 then
             ( indent ^ part,
               ({ rline = line; rcol = String.length indent + 1 }, rtrim part) )
           else
             let pad = List.nth pads k in
             ( indent ^ "+" ^ pad ^ part,
               ( { rline = line; rcol = String.length indent + 2 },
                 rtrim (pad ^ part) ) ))
         parts)
  in
  return (lines, segs)

type outcome = Parsed | Located of Parser.error | Other of string

let outcome deck =
  match Parser.parse deck with
  | _ -> Parsed
  | exception Parser.Parse_error e -> Located e
  | exception e -> Other (Printexc.to_string e)

let show_outcome = function
  | Parsed -> "parsed"
  | Located e -> Diag.located_text e
  | Other e -> e

(* Written on one line, the joined card puts every error at its offset
   in the joined text; across the physical lines, the error must sit
   where the reference lexer put that offset: the location of the
   token's first character plus the distance into the token. *)
let prop_located_errors_match_reference =
  QCheck2.Test.make ~name:"located errors match the reference lexer"
    ~count:500
    ~print:(fun (lines, _) -> String.concat "\n" lines)
    gen_split_card
    (fun (lines, segs) ->
      let joined, locs = ref_join_segments segs in
      let tokens = ref_tokenize_joined (joined, locs) in
      let multi = "title\n" ^ String.concat "\n" lines ^ "\n" in
      match (outcome ("title\n" ^ joined ^ "\n"), outcome multi) with
      | Parsed, Parsed -> true
      | Other a, Other b when a = b -> true
      | Located { loc = Some single; message; _ }, Located got -> (
          let p = single.Parser.col - 1 in
          match
            List.find_opt
              (fun (off, text, _) -> off <= p && p <= off + String.length text)
              tokens
          with
          | None -> QCheck2.Test.fail_reportf "offset %d lies in no token" p
          | Some (off, _, at) ->
              let line = at.rline and col = at.rcol + (p - off) in
              let text =
                String.map
                  (fun c -> if c = '\t' then ' ' else c)
                  (List.nth lines (line - 2))
              in
              let excerpt =
                Printf.sprintf "%4d | %s\n     | %s^" line text
                  (String.make (max 0 (min (col - 1) (String.length text))) ' ')
              in
              let want =
                {
                  Parser.loc = Some { Parser.file = "<deck>"; line; col };
                  message;
                  excerpt = Some excerpt;
                }
              in
              got = want
              || QCheck2.Test.fail_reportf "want %s:%d:%d %s, got %s" "<deck>" line
                   col message
                   (Diag.located_text got))
      | single, got ->
          QCheck2.Test.fail_reportf "one line: %s; physical lines: %s"
            (show_outcome single) (show_outcome got))

(* ------------------------------------------------------------------ *)
(* .param semantics and located errors                                 *)
(* ------------------------------------------------------------------ *)

let resistance deck name =
  match Circuit.find deck.Parser.circuit name with
  | Some (Circuit.Resistor { ohms; _ }) -> ohms
  | _ -> Alcotest.failf "no resistor %s" name

let test_override_text_rebinds () =
  (* X2 repeats X1's override text under the same .param binding and
     shares its pattern; X3 repeats it after r is redefined, which is a
     new binding *)
  let deck, compiles, hits, _ =
    pattern_deltas
      "t\n.param r = 1k\n.subckt seg a b rs=1\nR1 a b {rs}\n.ends\n\
       V1 n1 0 1\nX1 n1 n2 seg rs={r}\nX2 n2 n3 seg rs={r}\n.param r = 2k\n\
       X3 n3 0 seg rs={r}\n.op\n.end\n"
  in
  Alcotest.(check (float 0.0)) "X1 under r = 1k" 1000.0 (resistance deck "rx1.r1");
  Alcotest.(check (float 0.0)) "X2 under r = 1k" 1000.0 (resistance deck "rx2.r1");
  Alcotest.(check (float 0.0)) "X3 under r = 2k" 2000.0 (resistance deck "rx3.r1");
  Alcotest.(check int) "two bindings, two compiles" 2 compiles;
  Alcotest.(check int) "one hit" 1 hits

let test_param_redefinition () =
  let deck =
    Parser.parse
      "t\n.param r = 1k\nV1 in 0 1\nR1 in a {r}\n.param r = 2k\nR2 a 0 {r}\n\
       .op\n.end"
  in
  Alcotest.(check (float 0.0)) "R1 sees the first binding" 1000.0
    (resistance deck "r1");
  Alcotest.(check (float 0.0)) "R2 sees the rebinding" 2000.0
    (resistance deck "r2")

let expect_located ~line ~col ~needle text =
  match Parser.parse text with
  | exception Parser.Parse_error { loc = Some l; message; excerpt } ->
      Alcotest.(check string) "file" "<deck>" l.Parser.file;
      Alcotest.(check int) "line" line l.Parser.line;
      Alcotest.(check int) "col" col l.Parser.col;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      if not (contains message needle) then
        Alcotest.failf "message %S lacks %S" message needle;
      if excerpt = None then Alcotest.fail "no excerpt"
  | exception Parser.Parse_error { loc = None; message; _ } ->
      Alcotest.failf "error %S carries no location" message
  | _ -> Alcotest.fail "deck unexpectedly parsed"

let test_forward_reference_located () =
  (* the caret sits on [vdd] itself, past the blanks around '=' *)
  expect_located ~line:2 ~col:15 ~needle:{|unknown parameter "vdd"|}
    "t\n.param half = vdd / 2\n.param vdd = 0.6\nV1 in 0 {half}\nR1 in 0 1k\n\
     .op\n.end"

let test_continuation_located () =
  (* the bad token sits on the '+' line, the diagnostic names the first
     physical line of the joined card *)
  expect_located ~line:2 ~col:10 ~needle:"unknown unit suffix"
    "t\nV1 in 0 PULSE(0 0.6\n+ 1x 1n 1n 8n 20n)\nR1 in 0 1k\n.tran 5n 20n\n\
     .end"

(* ------------------------------------------------------------------ *)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_corpus"
    [
      ( "corpus-good",
        List.map (fun d -> tc d (test_good_deck d)) good_decks );
      ( "corpus-bad",
        List.map (fun d -> tc d (test_bad_deck d)) bad_decks );
      ( "patterns",
        [
          tc "100 instances compile one pattern" test_pattern_compiles_once;
          tc "one compile per parameter binding" test_pattern_per_binding;
          tc "identical cards share one physical model"
            test_instances_share_model;
          tc "same override text after .param is a new binding"
            test_override_text_rebinds;
        ] );
      ( "roundtrip",
        [
          tc "piecewise deck"
            (test_roundtrip ~device:"CNFET" ~model:"piecewise");
          tc "vs deck" (test_roundtrip ~device:"CNFET model=vs" ~model:"vs");
          tc "vs deck remodelled to piecewise"
            (test_roundtrip ~device:"CNFET model=vs" ~model:"piecewise");
        ] );
      ( "expressions",
        [
          tc "precedence pins" test_precedence_pins;
          tc "rejected expressions" test_expr_rejects;
          QCheck_alcotest.to_alcotest prop_expr_matches_reference;
          QCheck_alcotest.to_alcotest prop_suffix_scaling;
        ] );
      ( "lexer",
        [ QCheck_alcotest.to_alcotest prop_located_errors_match_reference ] );
      ( "param-semantics",
        [
          tc ".param redefinition is sequential" test_param_redefinition;
          tc "forward reference is a located error"
            test_forward_reference_located;
          tc "continuation errors name the card's first line"
            test_continuation_located;
        ] );
    ]
