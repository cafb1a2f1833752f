(* Tests for the convergence-robustness subsystem: the homotopy ladder,
   deterministic fault injection, structured diagnostics, the
   result-typed engine API, the committed hard decks, and the CLI
   exit-code contract (0 ok / 2 parse-usage / 3 convergence /
   4 internal). *)

open Cnt_spice

(* The hard decks' convergence trails and the cspice exit contract are
   pinned for each deck's declared model: neutralise any CNT_MODEL
   override from the environment (the CI model matrix) for this
   process and the cspice children — empty counts as unset. *)
let () = Unix.putenv "CNT_MODEL" ""

let check_close ?(eps = 1e-9) msg expected actual =
  if
    not
      (Cnt_numerics.Special.approx_equal ~atol:eps ~rtol:eps expected actual)
  then Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let dc_wave _ w = Waveform.dc_value w

(* An easy linear circuit every rung solves instantly: 9 V across a
   2k/1k divider, v(out) = 3. *)
let easy_circuit () =
  Circuit.create
    [
      Circuit.vdc "v1" "in" "0" 9.0;
      Circuit.resistor "r1" "in" "out" 2000.0;
      Circuit.resistor "r2" "out" "0" 1000.0;
    ]

let solve ?policy circuit =
  let c = Mna.compile circuit in
  let x0 = Array.make (Mna.size c) 0.0 in
  let r =
    Homotopy.solve ?policy c ~eval_wave:dc_wave ~cap:Mna.Open_circuit x0
  in
  (c, r)

let rungs_of trail = List.map (fun (a : Diag.attempt) -> a.rung) trail

let read_file path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Resolve build-tree files relative to this executable, so the suite
   runs identically under `dune runtest` (cwd = test directory) and
   `dune exec test/test_convergence.exe` (cwd = project root). *)
let test_dir = Filename.dirname Sys.executable_name
let in_test_dir path = Filename.concat test_dir path

(* ------------------------------------------------------------------ *)
(* Diag plumbing                                                       *)
(* ------------------------------------------------------------------ *)

let test_rung_names_roundtrip () =
  List.iter
    (fun r ->
      match Diag.rung_of_string (Diag.rung_name r) with
      | Some r' when r' = r -> ()
      | _ -> Alcotest.failf "rung %s does not round-trip" (Diag.rung_name r))
    Diag.all_rungs;
  Alcotest.(check bool) "short aliases" true
    (Diag.rung_of_string "gmin" = Some Diag.Gmin_stepping
    && Diag.rung_of_string "source" = Some Diag.Source_stepping
    && Diag.rung_of_string "damped" = Some Diag.Damped_newton);
  Alcotest.(check bool) "unknown rejected" true
    (Diag.rung_of_string "bogus" = None)

let test_fault_spec_parse () =
  let roundtrip s =
    match Fault.parse s with
    | Ok spec -> Fault.to_string spec
    | Error e -> Alcotest.failf "parse %S failed: %s" s e
  in
  Alcotest.(check string) "bare kind" "exhaust" (roundtrip "exhaust");
  Alcotest.(check string) "until" "singular@gmin-stepping"
    (roundtrip "singular@gmin");
  Alcotest.(check string) "until and point" "nan@source-stepping#0.3"
    (roundtrip "nan@source#0.3");
  List.iter
    (fun bad ->
      match Fault.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "parse %S should fail" bad)
    [ "bogus"; "exhaust@nope"; "nan#xyz"; "" ]

let test_diag_json () =
  let attempt : Diag.attempt =
    {
      rung = Diag.Plain_newton;
      succeeded = false;
      steps = 1;
      iterations = 200;
      residual = Float.nan;
      worst_node = Some "v(out)";
      failure = Some (Diag.Iterations_exhausted 200);
      scv_fallbacks = 0;
    }
  in
  let d =
    Diag.of_trail ~analysis:"dc" ~sweep_var:"vin" ~sweep_point:0.45
      [ attempt ]
  in
  let js = Diag.to_json d in
  let contains sub =
    let n = String.length sub and m = String.length js in
    let rec go i = i + n <= m && (String.sub js i n = sub || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "json contains %s" sub) true (go 0)
  in
  contains "\"analysis\": \"dc\"";
  contains "\"sweep_var\": \"vin\"";
  contains "plain-newton";
  (* NaN must not leak into the JSON *)
  contains "\"residual\": null";
  Alcotest.(check bool) "no nan token" true
    (not
       (let rec go i =
          i + 3 <= String.length js && (String.sub js i 3 = "nan" || go (i + 1))
        in
        go 0));
  Alcotest.(check bool) "text rendering mentions the rung" true
    (let s = Diag.to_string d in
     String.length s > 0)

let test_exit_code_mapping () =
  let d = Diag.of_trail ~analysis:"op" [] in
  Alcotest.(check int) "parse" 2
    (Diag.exit_code (Diag.Parse (Diag.located_message "x")));
  Alcotest.(check int) "bad deck" 2 (Diag.exit_code (Diag.Bad_deck "x"));
  Alcotest.(check int) "convergence" 3 (Diag.exit_code (Diag.Convergence d));
  Alcotest.(check int) "internal" 4 (Diag.exit_code (Diag.Internal "x"))

(* ------------------------------------------------------------------ *)
(* Ladder behaviour under fault injection                              *)
(* ------------------------------------------------------------------ *)

let test_plain_fast_path () =
  let c, r = solve (easy_circuit ()) in
  match r with
  | Ok (x, trail) ->
      check_close "divider" 3.0 x.(Mna.node_id c "out");
      Alcotest.(check int) "single attempt" 1 (List.length trail);
      let a = List.hd trail in
      Alcotest.(check bool) "plain rung" true (a.Diag.rung = Diag.Plain_newton);
      Alcotest.(check bool) "succeeded" true a.Diag.succeeded;
      Alcotest.(check int) "one continuation point" 1 a.Diag.steps;
      Alcotest.(check bool) "trail converged" true (Diag.trail_converged trail)
  | Error _ -> Alcotest.fail "easy circuit must converge"

(* Fault [exhaust@R] fails every rung strictly below R, so the ladder
   must escalate to exactly R — and R's solution must match the
   unfaulted one, because every rung solves the same undeformed system
   at the end. *)
let test_each_rung_fires () =
  List.iter
    (fun rescue ->
      let spec =
        { Fault.kind = Fault.Exhaust_iters; until = Some rescue; point = None }
      in
      let c, r =
        Homotopy.with_faults spec (fun () -> solve (easy_circuit ()))
      in
      match r with
      | Ok (x, trail) ->
          check_close
            (Printf.sprintf "%s solution" (Diag.rung_name rescue))
            3.0
            x.(Mna.node_id c "out");
          let last = List.nth trail (List.length trail - 1) in
          Alcotest.(check string) "rescued by the expected rung"
            (Diag.rung_name rescue)
            (Diag.rung_name last.Diag.rung);
          Alcotest.(check bool) "last attempt succeeded" true
            last.Diag.succeeded;
          List.iter
            (fun (a : Diag.attempt) ->
              if a.rung <> rescue then (
                Alcotest.(check bool) "earlier rung failed" true
                  (not a.succeeded);
                match a.failure with
                | Some (Diag.Iterations_exhausted _) -> ()
                | _ ->
                    Alcotest.failf "earlier rung %s: unexpected failure"
                      (Diag.rung_name a.rung)))
            trail
      | Error _ ->
          Alcotest.failf "ladder should rescue at %s"
            (Diag.rung_name rescue))
    [
      Diag.Damped_newton;
      Diag.Gmin_stepping;
      Diag.Source_stepping;
      Diag.Gmin_source;
    ]

let test_unrestricted_fault_fails_ladder () =
  let spec =
    { Fault.kind = Fault.Exhaust_iters; until = None; point = None }
  in
  let _, r = Homotopy.with_faults spec (fun () -> solve (easy_circuit ())) in
  match r with
  | Ok _ -> Alcotest.fail "unrestricted exhaust fault must fail the ladder"
  | Error trail ->
      Alcotest.(check int) "every enabled rung attempted"
        (List.length Diag.all_rungs)
        (List.length trail);
      Alcotest.(check bool) "ladder order" true
        (rungs_of trail = Diag.all_rungs);
      Alcotest.(check bool) "nothing converged" true
        (not (Diag.trail_converged trail))

let test_fault_kinds_map_to_reasons () =
  let reason_of kind =
    let spec = { Fault.kind; until = None; point = None } in
    let _, r =
      Homotopy.with_faults spec (fun () -> solve (easy_circuit ()))
    in
    match r with
    | Ok _ -> Alcotest.fail "faulted solve must fail"
    | Error trail -> (List.hd trail).Diag.failure
  in
  (match reason_of Fault.Singular_matrix with
  | Some (Diag.Singular _) -> ()
  | _ -> Alcotest.fail "singular fault must report Singular");
  (match reason_of Fault.Exhaust_iters with
  | Some (Diag.Iterations_exhausted _) -> ()
  | _ -> Alcotest.fail "exhaust fault must report Iterations_exhausted");
  (* a NaN device eval needs a nonlinear device in the circuit *)
  let cnfet =
    (Parser.parse "t\nVD d 0 0.4\nVG g 0 0.5\nM1 d g 0 CNFET\n.op\n.end")
      .Parser.circuit
  in
  let spec = { Fault.kind = Fault.Nan_eval; until = None; point = None } in
  let _, r = Homotopy.with_faults spec (fun () -> solve cnfet) in
  match r with
  | Ok _ -> Alcotest.fail "nan fault must fail"
  | Error trail -> (
      match (List.hd trail).Diag.failure with
      | Some (Diag.Non_finite _) -> ()
      | _ -> Alcotest.fail "nan fault must report Non_finite")

let test_point_restricted_fault () =
  (* no sweep context: the point-restricted fault never fires *)
  let spec =
    { Fault.kind = Fault.Exhaust_iters; until = None; point = Some 0.5 }
  in
  (let _, r = Homotopy.with_faults spec (fun () -> solve (easy_circuit ())) in
   match r with
   | Ok (_, trail) ->
       Alcotest.(check int) "plain solve untouched" 1 (List.length trail)
   | Error _ -> Alcotest.fail "fault must not fire without a sweep point");
  (* a DC sweep sets the context; the fault kills exactly one point *)
  let circuit =
    Circuit.create
      [
        Circuit.vdc "v1" "in" "0" 0.0;
        Circuit.resistor "r1" "in" "out" 1000.0;
        Circuit.resistor "r2" "out" "0" 1000.0;
      ]
  in
  (match
     Homotopy.with_faults spec (fun () ->
         Dc.sweep circuit ~source:"v1" ~start:0.0 ~stop:1.0 ~step:0.1)
   with
  | _ -> Alcotest.fail "sweep through the faulted point must fail"
  | exception Diag.Convergence_failure d ->
      Alcotest.(check string) "analysis" "dc" d.Diag.analysis;
      Alcotest.(check bool) "sweep var" true (d.Diag.sweep_var = Some "v1");
      (match d.Diag.sweep_point with
      | Some p -> check_close "failing point" 0.5 p
      | None -> Alcotest.fail "sweep point missing from diagnostic");
      Alcotest.(check bool) "non-empty trail" true (d.Diag.trail <> []));
  (* restricted to rungs below damped, the failed warm start at 0.5
     climbs the ladder, the damped rung rescues it and the continuation
     goes on *)
  let r =
    Homotopy.with_faults { spec with until = Some Diag.Damped_newton }
      (fun () -> Dc.sweep circuit ~source:"v1" ~start:0.0 ~stop:1.0 ~step:0.1)
  in
  Array.iteri
    (fun i v ->
      check_close
        (Printf.sprintf "v(out) at v1 = %g" r.Dc.sweep_values.(i))
        (r.Dc.sweep_values.(i) /. 2.0) v)
    (Dc.sweep_voltage r "out")

(* ------------------------------------------------------------------ *)
(* The committed hard decks                                            *)
(* ------------------------------------------------------------------ *)

let parse_deck path = Parser.parse (read_file (in_test_dir path))

(* Pinned diagnostic: decks/hard_bias.cir genuinely defeats plain
   Newton (the 120 V sense node is beyond max_iter * max_step from the
   zero initial guess). *)
let test_hard_deck_plain_fails () =
  let deck = parse_deck "decks/hard_bias.cir" in
  match
    Dc.operating_point ~policy:Homotopy.plain_only deck.Parser.circuit
  with
  | _ -> Alcotest.fail "plain-only policy must fail on the hard deck"
  | exception Diag.Convergence_failure d ->
      Alcotest.(check string) "analysis" "op" d.Diag.analysis;
      Alcotest.(check int) "exactly one attempt" 1 (List.length d.Diag.trail);
      let a = List.hd d.Diag.trail in
      Alcotest.(check string) "plain rung" "plain-newton"
        (Diag.rung_name a.Diag.rung);
      (match a.Diag.failure with
      | Some (Diag.Iterations_exhausted n) ->
          Alcotest.(check int) "default budget" 200 n
      | _ -> Alcotest.fail "expected iteration exhaustion");
      Alcotest.(check bool) "worst node named" true
        (a.Diag.worst_node <> None)

let test_hard_deck_ladder_rescues () =
  let deck = parse_deck "decks/hard_bias.cir" in
  let c, r = solve deck.Parser.circuit in
  match r with
  | Error _ -> Alcotest.fail "default ladder must rescue the hard deck"
  | Ok (x, trail) ->
      (* 1 uA * 120 Mohm, slightly loaded by the target gmin *)
      check_close ~eps:5e-4 "sense node" 120.0 (x.(Mna.node_id c "nhv") /. 1.0);
      check_close ~eps:5e-4 "gate tap" 0.4 x.(Mna.node_id c "ngate");
      Alcotest.(check bool) "plain attempted first" true
        (List.hd (rungs_of trail) = Diag.Plain_newton);
      let last = List.nth trail (List.length trail - 1) in
      Alcotest.(check string) "gmin stepping rescues" "gmin-stepping"
        (Diag.rung_name last.Diag.rung);
      Alcotest.(check bool) "continuation walked several points" true
        (last.Diag.steps > 1);
      Alcotest.(check bool) "trail converged" true
        (Diag.trail_converged trail)

let test_hard_src_deck_source_stepping () =
  let deck = parse_deck "decks/hard_src.cir" in
  let c, r = solve deck.Parser.circuit in
  match r with
  | Error _ -> Alcotest.fail "default ladder must rescue hard_src.cir"
  | Ok (x, trail) ->
      check_close ~eps:5e-4 "sense node" 260.0 x.(Mna.node_id c "nhv");
      let last = List.nth trail (List.length trail - 1) in
      Alcotest.(check string) "source stepping rescues" "source-stepping"
        (Diag.rung_name last.Diag.rung);
      Alcotest.(check bool) "three failed rungs before it" true
        (List.length trail = 4)

(* ------------------------------------------------------------------ *)
(* Result-typed engine API                                             *)
(* ------------------------------------------------------------------ *)

let easy_deck_text = "t\nV1 in 0 9\nR1 in out 2k\nR2 out 0 1k\n.op\n.end\n"

let test_run_deck_result_ok () =
  match Engine.run_deck_result (Parser.parse easy_deck_text) with
  | Ok [ t ] ->
      Alcotest.(check string) "label" "op" t.Engine.analysis_label;
      Alcotest.(check int) "one row" 1 (Array.length t.Engine.rows)
  | Ok _ -> Alcotest.fail "expected exactly one table"
  | Error _ -> Alcotest.fail "easy deck must succeed"

let test_run_deck_result_convergence_error () =
  let spec =
    { Fault.kind = Fault.Exhaust_iters; until = None; point = None }
  in
  match
    Homotopy.with_faults spec (fun () ->
        Engine.run_deck_result (Parser.parse easy_deck_text))
  with
  | Error (Diag.Convergence d) ->
      Alcotest.(check int) "exit 3" 3 (Diag.exit_code (Diag.Convergence d));
      Alcotest.(check bool) "full trail captured" true
        (List.length d.Diag.trail = List.length Diag.all_rungs)
  | Ok _ -> Alcotest.fail "faulted run must fail"
  | Error _ -> Alcotest.fail "expected a Convergence error"

let test_run_deck_result_bad_deck () =
  let deck =
    Parser.parse "t\nV1 in 0 0\nR1 in 0 1k\n.dc VMISSING 0 1 0.1\n.end\n"
  in
  match Engine.run_deck_result deck with
  | Error (Diag.Bad_deck _ as e) ->
      Alcotest.(check int) "exit 2" 2 (Diag.exit_code e)
  | Ok _ -> Alcotest.fail "sweeping a missing source must fail"
  | Error e ->
      Alcotest.failf "expected Bad_deck, got %s" (Diag.error_message e)

let test_plain_only_config_threads () =
  let deck = parse_deck "decks/hard_bias.cir" in
  let config =
    { Engine.default_config with homotopy = Homotopy.plain_only }
  in
  match Engine.run_deck_result ~config deck with
  | Error (Diag.Convergence d) ->
      Alcotest.(check int) "single plain attempt" 1 (List.length d.Diag.trail)
  | Ok _ -> Alcotest.fail "plain-only config must fail on the hard deck"
  | Error e ->
      Alcotest.failf "expected Convergence, got %s" (Diag.error_message e)

(* ------------------------------------------------------------------ *)
(* CLI exit-code contract                                              *)
(* ------------------------------------------------------------------ *)

let write_temp_deck text =
  let path = Filename.temp_file "cnt_conv" ".cir" in
  let oc = open_out path in
  output_string oc text;
  close_out oc;
  path

(* [timeout] (seconds) kills a run that hangs; it then reads as exit
   137. *)
let run_tool ?(env = "") ?timeout name args =
  let exe = Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")) in
  let err = Filename.temp_file "cnt_conv" ".err" in
  let limit =
    match timeout with
    | None -> ""
    | Some s -> Printf.sprintf "timeout -s KILL %d" s
  in
  let cmd =
    Printf.sprintf "%s %s %s %s > /dev/null 2> %s" env limit (in_test_dir exe)
      args err
  in
  let code = Sys.command cmd in
  let stderr_text = read_file err in
  Sys.remove err;
  (code, stderr_text)

let run_cspice ?env ?timeout args = run_tool ?env ?timeout "cspice" args

let has sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_cli_exit_codes () =
  let easy = write_temp_deck easy_deck_text in
  let garbage = write_temp_deck "t\nR1 a b not_a_number\n.op\n.end\n" in
  let bad_print =
    write_temp_deck "t\nV1 a 0 1\nR1 a 0 1k\n.op\n.print id(r1)\n.end\n"
  in
  (* an AC analysis has no drain-current column: the parser rejects
     the id() item *)
  let ac_id =
    write_temp_deck
      "t\nV1 a 0 dc 0 ac 1\nR1 a 0 1k\nM1 a a 0 CNFET\n.ac dec 1 1 10\n\
       .print id(m1)\n.end\n"
  in
  let cleanup () = List.iter Sys.remove [ easy; garbage; bad_print; ac_id ] in
  Fun.protect ~finally:cleanup @@ fun () ->
  Alcotest.(check int) "success is 0" 0 (fst (run_cspice easy));
  Alcotest.(check int) "missing file is 2" 2
    (fst (run_cspice "/nonexistent/deck.cir"));
  Alcotest.(check int) "parse error is 2" 2 (fst (run_cspice garbage));
  Alcotest.(check int) "print item naming no CNFET is 2" 2
    (fst (run_cspice bad_print));
  Alcotest.(check int) "id() in an .ac deck is 2" 2 (fst (run_cspice ac_id));
  (* no daemon listens there: a failure of the tool, not of the deck *)
  Alcotest.(check int) "internal error is 4" 4
    (fst (run_cspice ("--connect /nonexistent/cntd.sock " ^ easy)));
  Alcotest.(check int) "unknown option --cache is 2" 2
    (fst (run_cspice ("--cache 1 " ^ easy)));
  Alcotest.(check int) "unknown option --assembly is 2" 2
    (fst (run_cspice ("--assembly scalar " ^ easy)));
  Alcotest.(check int) "unknown option --solver is 2" 2
    (fst (run_cspice ("--solver sparse " ^ easy)));
  Alcotest.(check int) "unknown option --ordering is 2" 2
    (fst (run_cspice ("--ordering amd " ^ easy)));
  (* out-of-range run settings are usage errors, named by flag *)
  List.iter
    (fun (flag, value) ->
      let code, err = run_cspice (Printf.sprintf "%s=%s %s" flag value easy) in
      Alcotest.(check int) (flag ^ "=" ^ value ^ " is 2") 2 code;
      Alcotest.(check bool) (flag ^ " named on stderr") true (has flag err))
    [
      ("--tol", "-1"); ("--tol", "nan"); ("--tol", "0"); ("--max-iter", "0");
      ("--gmin", "-1"); ("--deadline", "nan"); ("--deadline", "-1");
    ];
  (* a NaN device temperature or diameter would spin the model fit
     forever: the parser must stop it as a located error (exit 2) well
     inside the timeout *)
  List.iter
    (fun attr ->
      let deck =
        write_temp_deck
          (Printf.sprintf
             "t\nV1 in 0 0.5\nM1 out in 0 CNFET %s={0/0}\nR1 out 0 1k\n.op\n.end\n"
             attr)
      in
      let code, err = run_cspice ~timeout:20 deck in
      Sys.remove deck;
      Alcotest.(check int) ("CNFET " ^ attr ^ "={0/0} is 2") 2 code;
      Alcotest.(check bool) (attr ^ " NaN located on stderr") true
        (has ":3:" err && has "NaN" err))
    [ "temp"; "d" ];
  let code, err = run_cspice ~env:"CNT_FAULT=exhaust" easy in
  Alcotest.(check int) "convergence failure is 3" 3 code;
  Alcotest.(check bool) "trail printed to stderr" true
    (has "strategy trail" err && has "plain-newton" err);
  (* the contract holds on every tool: cmdliner's own usage failure
     (124) folds to 2, and --help renders instead of raising *)
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " --bogus is 2") 2
        (fst (run_tool name "--bogus"));
      Alcotest.(check int) (name ^ " --help is 0") 0
        (fst (run_tool name "--help=plain")))
    [ "cspice"; "cntd"; "repro"; "cnt_char"; "fit_charge" ];
  (* the domain pool's knobs are retired: each is an unknown option *)
  List.iter
    (fun (name, args) ->
      Alcotest.(check int) (name ^ " " ^ args ^ " is 2") 2
        (fst (run_tool name args)))
    [
      ("cspice", "-j 2 " ^ easy); ("cspice", "--jobs 2 " ^ easy);
      ("repro", "-j 2 --list"); ("repro", "--jobs 2 --list");
      ("cnt_char", "-j 2"); ("cnt_char", "--jobs 2");
      ("cntd", "-j 2"); ("cntd", "--jobs 2"); ("cntd", "--jobs-budget 4");
    ];
  (* repro's unknown experiment exits with the code its manifest records *)
  let dir = Filename.temp_dir "cnt_conv" "" in
  let report = Filename.concat dir "manifest.json" in
  let code, _ =
    run_tool "repro" (Printf.sprintf "--dir %s --report %s bogus" dir report)
  in
  let manifest = read_file report in
  Sys.remove report;
  Sys.rmdir dir;
  Alcotest.(check int) "repro bogus is 2" 2 code;
  Alcotest.(check bool) "manifest records the same code" true
    (has "\"exit_code\":2" manifest)

let test_cli_hard_deck () =
  Alcotest.(check int) "hard deck converges by default" 0
    (fst (run_cspice (in_test_dir "decks/hard_bias.cir")));
  Alcotest.(check int) "hard deck exits 3 without the ladder" 3
    (fst (run_cspice ("--no-homotopy " ^ in_test_dir "decks/hard_bias.cir")));
  (* an until-restricted CNT_FAULT lets a later rung rescue: exit 0 *)
  let easy = write_temp_deck easy_deck_text in
  Fun.protect ~finally:(fun () -> Sys.remove easy) @@ fun () ->
  Alcotest.(check int) "until-fault rescued by damped rung" 0
    (fst (run_cspice ~env:"CNT_FAULT=exhaust@damped" easy))

(* Run [body] against a fresh cntd on a private socket, then stop it. *)
let with_daemon body =
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cntd-conv-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists sock then Sys.remove sock;
  let cntd =
    in_test_dir (Filename.concat ".." (Filename.concat "bin" "cntd.exe"))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cntd [| "cntd"; "--listen"; sock |] Unix.stdin null null
  in
  Unix.close null;
  let stop () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid)
  in
  Fun.protect ~finally:stop @@ fun () ->
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists sock) do
    if Unix.gettimeofday () > deadline then
      Alcotest.fail "daemon did not come up within 10s";
    Unix.sleepf 0.02
  done;
  body sock

(* A singular MNA matrix names the circuit unknown left without a
   pivot, in the failure reason and as the worst node, offline and
   through cntd alike: two ideal sources fighting over one node, and a
   resistor pair floating free of ground once gmin is off. *)
let test_cli_singular_names_unknown () =
  let fight =
    write_temp_deck
      "two sources fight\nV1 a 0 1\nV2 a 0 2\nR1 a 0 1k\n.op\n.end\n"
  in
  let floating =
    write_temp_deck "floating pair\nV1 a 0 1\nR0 a 0 1k\nR1 b c 1k\n.op\n.end\n"
  in
  Fun.protect ~finally:(fun () -> List.iter Sys.remove [ fight; floating ])
  @@ fun () ->
  with_daemon @@ fun sock ->
  List.iter
    (fun (label, args, unknown) ->
      let code, err = run_cspice args in
      Alcotest.(check int) (label ^ " exits 3") 3 code;
      Alcotest.(check bool)
        (label ^ " reason names " ^ unknown)
        true
        (has ("(singular matrix: zero pivot at " ^ unknown ^ ")") err);
      Alcotest.(check bool)
        (label ^ " worst node is " ^ unknown)
        true
        (has ("worst node: " ^ unknown ^ "\n") err);
      let code_on, err_on =
        run_cspice (Printf.sprintf "--connect %s %s" sock args)
      in
      Alcotest.(check int) (label ^ " exits 3 via cntd") 3 code_on;
      Alcotest.(check string) (label ^ " stderr via cntd") err err_on)
    [ ("fight", fight, "i(v2)"); ("floating", "--gmin 0 " ^ floating, "c") ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_convergence"
    [
      ( "diag",
        [
          tc "rung names round-trip" test_rung_names_roundtrip;
          tc "fault spec parse" test_fault_spec_parse;
          tc "json rendering" test_diag_json;
          tc "exit-code mapping" test_exit_code_mapping;
        ] );
      ( "ladder",
        [
          tc "plain fast path" test_plain_fast_path;
          tc "each rung fires" test_each_rung_fires;
          tc "unrestricted fault fails ladder"
            test_unrestricted_fault_fails_ladder;
          tc "fault kinds map to reasons" test_fault_kinds_map_to_reasons;
          tc "point-restricted fault" test_point_restricted_fault;
        ] );
      ( "hard decks",
        [
          tc "plain-only fails (pinned)" test_hard_deck_plain_fails;
          tc "ladder rescues via gmin" test_hard_deck_ladder_rescues;
          tc "source stepping rescues" test_hard_src_deck_source_stepping;
        ] );
      ( "engine api",
        [
          tc "ok result" test_run_deck_result_ok;
          tc "convergence error" test_run_deck_result_convergence_error;
          tc "bad deck error" test_run_deck_result_bad_deck;
          tc "plain-only config threads" test_plain_only_config_threads;
        ] );
      ( "cli",
        [
          tc "exit codes" test_cli_exit_codes;
          tc "hard deck via cli" test_cli_hard_deck;
          tc "singular matrix names the unknown"
            test_cli_singular_names_unknown;
        ] );
    ]
