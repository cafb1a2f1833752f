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
(* .param semantics and located errors                                 *)
(* ------------------------------------------------------------------ *)

let resistance deck name =
  match Circuit.find deck.Parser.circuit name with
  | Some (Circuit.Resistor { ohms; _ }) -> ohms
  | _ -> Alcotest.failf "no resistor %s" name

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
  expect_located ~line:2 ~col:13 ~needle:{|unknown parameter "vdd"|}
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
      ( "param-semantics",
        [
          tc ".param redefinition is sequential" test_param_redefinition;
          tc "forward reference is a located error"
            test_forward_reference_located;
          tc "continuation errors name the card's first line"
            test_continuation_located;
        ] );
    ]
