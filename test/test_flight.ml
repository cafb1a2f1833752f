(* Flight-recorder layer: progress streams, run manifests and metrics
   export.

   The determinism contract under test (docs/OBSERVABILITY.md):
   milestone events (analysis start/finish, ladder escalations) carry
   no wall-clock data and arrive in a schedule-independent order, so
   their stream is bitwise-identical at any --jobs; stdout tables are
   byte-identical with every observability flag on or off; write
   failures exit 2 with a structured "output error", never an uncaught
   Sys_error. *)

module Obs = Cnt_obs.Obs
module Progress = Cnt_obs.Progress
module Manifest = Cnt_obs.Manifest
module Report = Cnt_obs.Report

(* This suite pins cspice bytes for decks on their declared models:
   neutralise any CNT_MODEL override from the environment (the CI model
   matrix) for this process and every child it spawns — an empty value
   counts as unset on both sides. *)
let () = Unix.putenv "CNT_MODEL" ""

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Resolve build-tree files relative to this executable so the suite
   behaves the same under `dune runtest` and `dune exec`. *)
let test_dir = Filename.dirname Sys.executable_name
let in_test_dir path = Filename.concat test_dir path

let exe name =
  in_test_dir (Filename.concat ".." (Filename.concat "bin" (name ^ ".exe")))

let deck name = in_test_dir (Filename.concat "decks" (name ^ ".cir"))

(* Run a command; return (exit_code, stdout, stderr). *)
let run_command cmd =
  let out = Filename.temp_file "cnt_flight" ".out" in
  let err = Filename.temp_file "cnt_flight" ".err" in
  let code = Sys.command (Printf.sprintf "%s > %s 2> %s" cmd out err) in
  let stdout_text = read_file out in
  let stderr_text = read_file err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout_text, stderr_text)

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Progress: events, throttling, dispatch                              *)
(* ------------------------------------------------------------------ *)

let test_milestone_classes () =
  Alcotest.(check bool)
    "start is milestone" true
    (Progress.milestone (Progress.Analysis_start { analysis = "op"; label = "op" }));
  Alcotest.(check bool)
    "escalation is milestone" true
    (Progress.milestone
       (Progress.Rung_escalation { rung = "gmin-stepping"; sweep_point = None }));
  Alcotest.(check bool)
    "sweep point is a tick" false
    (Progress.milestone (Progress.Sweep_point { k = 1; n = 7; value = 0.0 }));
  Alcotest.(check bool)
    "tran step is a tick" false
    (Progress.milestone
       (Progress.Tran_step { t = 0.0; t_stop = 1.0; accepted = 1; rejected = 0 }))

let test_event_json () =
  let j =
    Progress.event_to_json
      (Progress.Analysis_finish { analysis = "dc"; label = "dc vin"; points = 7 })
  in
  Alcotest.(check bool) "tagged" true (contains ~needle:"\"ev\":\"analysis_finish\"" j);
  Alcotest.(check bool) "points" true (contains ~needle:"\"points\":7" j);
  Alcotest.(check bool) "milestone flag" true (contains ~needle:"\"milestone\":true" j);
  let j =
    Progress.event_to_json
      (Progress.Rung_escalation { rung = "gmin+source"; sweep_point = Some 0.25 })
  in
  Alcotest.(check bool) "sweep point" true (contains ~needle:"\"sweep_point\":0.25" j);
  let j =
    Progress.event_to_json
      (Progress.Sweep_point { k = 3; n = 7; value = Float.nan })
  in
  Alcotest.(check bool) "NaN is null" true (contains ~needle:"\"value\":null" j)

let test_off_by_default () =
  Alcotest.(check bool) "off with no sink" false (Progress.on ());
  (* emitting while off is the one-branch no-op *)
  Progress.emit (Progress.Sweep_point { k = 1; n = 1; value = 0.0 })

let test_throttle_and_milestones () =
  let got = ref [] in
  (* an hour-long interval: every tick after the first is throttled,
     milestones always pass *)
  let s = Progress.sink ~min_interval:3600.0 (fun ev -> got := ev :: !got) in
  Progress.with_sink s (fun () ->
      Alcotest.(check bool) "on inside with_sink" true (Progress.on ());
      for k = 1 to 10 do
        Progress.emit (Progress.Sweep_point { k; n = 10; value = 0.0 })
      done;
      Progress.emit
        (Progress.Analysis_finish { analysis = "dc"; label = "x"; points = 10 }));
  Alcotest.(check bool) "off after with_sink" false (Progress.on ());
  let ticks, milestones =
    List.partition (fun ev -> not (Progress.milestone ev)) !got
  in
  Alcotest.(check int) "one tick passed the throttle" 1 (List.length ticks);
  Alcotest.(check int) "milestone passed" 1 (List.length milestones)

(* Library-level jobs invariance: sweeping the same circuit at jobs=1
   and jobs=4 must produce the identical milestone sequence, exactly n
   tick events, and the same tick payload multiset (order may differ). *)
let test_sweep_jobs_invariance () =
  let inverter () =
    let open Cnt_spice in
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc "vin" "in" "0" 0.0;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0"
          (Cnt_core.Cnt_model.model2 ());
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd"
          (Cnt_core.Cnt_model.model2 ~polarity:Cnt_core.Cnt_model.P_type ());
      ]
  in
  let capture ~jobs =
    let got = ref [] in
    let s = Progress.sink (fun ev -> got := ev :: !got) in
    Progress.with_sink s (fun () ->
        ignore
          (Cnt_spice.Dc.sweep ~jobs (inverter ()) ~source:"vin" ~start:0.0
             ~stop:0.6 ~step:0.1));
    List.rev !got
  in
  let n_expected = 7 in
  let events1 = capture ~jobs:1 and events4 = capture ~jobs:4 in
  let split evs = List.partition Progress.milestone evs in
  let m1, t1 = split events1 and m4, t4 = split events4 in
  Alcotest.(check (list string))
    "milestone streams identical at jobs=1 and jobs=4"
    (List.map Progress.event_to_json m1)
    (List.map Progress.event_to_json m4);
  Alcotest.(check int) "jobs=1 tick count" n_expected (List.length t1);
  Alcotest.(check int) "jobs=4 tick count" n_expected (List.length t4);
  let multiset evs = List.sort compare (List.map Progress.event_to_json evs) in
  Alcotest.(check (list string))
    "tick payload multiset identical" (multiset t1) (multiset t4)

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let test_manifest_json () =
  Alcotest.(check string)
    "escaping"
    "{\"a\\\"b\":\"x\\ny\"}"
    (Manifest.json_to_string
       (Manifest.Obj [ ("a\"b", Manifest.String "x\ny") ]));
  Alcotest.(check string)
    "nan is null" "null"
    (Manifest.json_to_string (Manifest.Float Float.nan));
  Alcotest.(check string)
    "raw embeds verbatim" "{\"d\":{\"k\":1}}"
    (Manifest.json_to_string
       (Manifest.Obj [ ("d", Manifest.Raw "{\"k\":1}") ]))

let test_manifest_sections () =
  let m = Manifest.create ~tool:"test" ~argv:[ "a"; "b" ] () in
  Manifest.set m "x" (Manifest.Int 1);
  Manifest.set m "x" (Manifest.Int 2);
  let s = Manifest.to_string m in
  Alcotest.(check bool) "schema" true (contains ~needle:"cnt-run-manifest/1" s);
  Alcotest.(check bool) "tool" true (contains ~needle:"\"tool\":{\"name\":\"test\",\"version\":" s);
  Alcotest.(check bool) "set replaces" true (contains ~needle:"\"x\":2" s);
  Alcotest.(check bool) "no duplicate" false (contains ~needle:"\"x\":1" s)

let test_digest_rows () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0 |] |] in
  let b = [| [| 1.0 |]; [| 2.0; 3.0 |] |] in
  let c = [| [| 1.0; 2.0 |]; [| 3.0000000001 |] |] in
  Alcotest.(check bool)
    "stable" true
    (Manifest.digest_rows a = Manifest.digest_rows a);
  Alcotest.(check bool)
    "reshape changes digest" false
    (Manifest.digest_rows a = Manifest.digest_rows b);
  Alcotest.(check bool)
    "value change changes digest" false
    (Manifest.digest_rows a = Manifest.digest_rows c)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus () =
  Obs.reset ();
  Obs.enable ();
  let c = Obs.counter "flight.test_counter" in
  Obs.incr ~by:3 c;
  let h = Obs.histogram "flight.test_hist" in
  List.iter (fun v -> Obs.observe h v) [ 1.0; 2.0; 3.0; 4.0 ];
  let text = Report.prometheus () in
  Obs.disable ();
  Obs.reset ();
  Alcotest.(check bool)
    "counter metric" true
    (contains ~needle:"cnt_flight_test_counter_total 3" text);
  Alcotest.(check bool)
    "counter type" true
    (contains ~needle:"# TYPE cnt_flight_test_counter_total counter" text);
  Alcotest.(check bool)
    "summary type" true
    (contains ~needle:"# TYPE cnt_flight_test_hist summary" text);
  Alcotest.(check bool)
    "quantile label" true
    (contains ~needle:"cnt_flight_test_hist{quantile=\"0.9\"}" text);
  Alcotest.(check bool)
    "count line" true
    (contains ~needle:"cnt_flight_test_hist_count 4" text)

(* ------------------------------------------------------------------ *)
(* CLI: milestone invariance, stdout invariance, artefacts             *)
(* ------------------------------------------------------------------ *)

let milestone_lines stderr_text =
  List.filter (fun l -> contains ~needle:"\"milestone\":true" l) (lines stderr_text)

let test_cli_milestones_jobs_invariant () =
  let run jobs =
    let code, out, err =
      run_command
        (Printf.sprintf "%s --progress jsonl --jobs %d %s" (exe "cspice") jobs
           (deck "golden_inverter"))
    in
    Alcotest.(check int) (Printf.sprintf "exit at jobs=%d" jobs) 0 code;
    (out, err)
  in
  let out1, err1 = run 1 and out4, err4 = run 4 in
  Alcotest.(check string) "stdout identical across jobs" out1 out4;
  Alcotest.(check (list string))
    "milestone stream identical across jobs" (milestone_lines err1)
    (milestone_lines err4);
  Alcotest.(check bool)
    "stream has milestones" true
    (List.length (milestone_lines err1) >= 2)

let test_cli_stdout_invariant_with_flags () =
  let tmp = Filename.temp_file "cnt_flight" "" in
  Sys.remove tmp;
  let dir = tmp in
  Sys.mkdir dir 0o755;
  let code_plain, out_plain, _ =
    run_command (Printf.sprintf "%s %s" (exe "cspice") (deck "golden_divider"))
  in
  let code_flags, out_flags, _ =
    run_command
      (Printf.sprintf "%s --progress tty --report %s --metrics %s %s"
         (exe "cspice")
         (Filename.concat dir "m.json")
         (Filename.concat dir "m.csv")
         (deck "golden_divider"))
  in
  Alcotest.(check int) "plain exit" 0 code_plain;
  Alcotest.(check int) "flags exit" 0 code_flags;
  Alcotest.(check string) "stdout byte-identical" out_plain out_flags

(* The golden decks converge on plain Newton with zero device-level
   bisection rescues; pin that via the --metrics export. *)
let test_metrics_pins_scv_fallbacks () =
  List.iter
    (fun d ->
      let tmp = Filename.temp_file "cnt_flight" ".csv" in
      let code, _, _ =
        run_command
          (Printf.sprintf "%s --metrics %s %s" (exe "cspice") tmp (deck d))
      in
      Alcotest.(check int) (d ^ " exit") 0 code;
      let csv = read_file tmp in
      Sys.remove tmp;
      Alcotest.(check bool)
        (d ^ " scv.fallback_bisection = 0")
        true
        (contains ~needle:"scv.fallback_bisection,0" csv))
    [ "golden_inverter"; "golden_divider" ]

let test_report_manifest_shape () =
  let tmp = Filename.temp_file "cnt_flight" ".json" in
  let code, _, _ =
    run_command
      (Printf.sprintf "%s --report %s %s" (exe "cspice") tmp
         (deck "golden_inverter"))
  in
  Alcotest.(check int) "exit" 0 code;
  let m = read_file tmp in
  Sys.remove tmp;
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("manifest has " ^ needle) true (contains ~needle m))
    [
      "\"schema\":\"cnt-run-manifest/1\"";
      "\"tool\":{\"name\":\"cspice\"";
      "\"config\":";
      "\"analyses\":";
      "\"digest_md5\":";
      "\"obs\":";
      "\"outcome\":";
      "\"status\":\"ok\"";
    ];
  (* structural sanity: braces and brackets balance, JSON-grade quoting *)
  let balance open_c close_c =
    String.fold_left
      (fun acc c -> if c = open_c then acc + 1 else if c = close_c then acc - 1 else acc)
      0 m
  in
  Alcotest.(check int) "braces balance" 0 (balance '{' '}');
  Alcotest.(check int) "brackets balance" 0 (balance '[' ']')

let test_metrics_prom_format () =
  let tmp = Filename.temp_file "cnt_flight" ".prom" in
  let code, _, _ =
    run_command
      (Printf.sprintf "%s --metrics %s %s" (exe "cspice") tmp
         (deck "golden_divider"))
  in
  Alcotest.(check int) "exit" 0 code;
  let text = read_file tmp in
  Sys.remove tmp;
  Alcotest.(check bool)
    "prometheus counters" true
    (contains ~needle:"# TYPE cnt_mna_newton_iterations_total counter" text);
  Alcotest.(check bool)
    "span gauge" true
    (contains ~needle:"cnt_obs_span_seconds{path=\"analysis.op\"}" text)

let test_unwritable_paths_exit_2 () =
  List.iter
    (fun flag ->
      let code, _, err =
        run_command
          (Printf.sprintf "%s %s /nonexistent-dir/out.x %s" (exe "cspice") flag
             (deck "golden_divider"))
      in
      Alcotest.(check int) (flag ^ " exit") 2 code;
      Alcotest.(check bool)
        (flag ^ " structured message")
        true
        (contains ~needle:"output error:" err))
    [ "--report"; "--metrics"; "--trace" ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_flight"
    [
      ( "progress",
        [
          tc "milestone classification" test_milestone_classes;
          tc "event json" test_event_json;
          tc "off by default" test_off_by_default;
          tc "throttle drops ticks, passes milestones"
            test_throttle_and_milestones;
          tc "dc sweep jobs invariance" test_sweep_jobs_invariance;
        ] );
      ( "manifest",
        [
          tc "json rendering" test_manifest_json;
          tc "sections" test_manifest_sections;
          tc "waveform digests" test_digest_rows;
        ] );
      ("prometheus", [ tc "text exposition" test_prometheus ]);
      ( "cli",
        [
          tc "milestones identical at jobs=1/4"
            test_cli_milestones_jobs_invariant;
          tc "stdout identical with flags on"
            test_cli_stdout_invariant_with_flags;
          tc "metrics pin scv.fallback_bisection=0"
            test_metrics_pins_scv_fallbacks;
          tc "report manifest shape" test_report_manifest_shape;
          tc "metrics .prom format" test_metrics_prom_format;
          tc "unwritable paths exit 2" test_unwritable_paths_exit_2;
        ] );
    ]
