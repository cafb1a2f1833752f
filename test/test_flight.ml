(* Flight-recorder layer: progress streams, run manifests and metrics
   export.

   The determinism contract under test (docs/OBSERVABILITY.md):
   milestone events (analysis start/finish, ladder escalations) carry
   no wall-clock data, so their stream is bitwise-identical on every
   run; sweep ticks arrive in sweep order; stdout tables are
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

(* A DC sweep is one warm-started continuation: the 121-point inverter
   VTC that cntd_mixed serves (VDD = 0.6 V, 5 mV step) solves point 0
   cold through the ladder and every later point by plain Newton from
   its predecessor.  Exact counts per backend: Newton iterations,
   ladder rescues and plain-rung attempts (one: point 0's).  Progress
   ticks carry k = 1..n in sweep order, tick k at sweep point k - 1,
   between the analysis start and finish milestones. *)
let test_sweep_continuation () =
  let deck =
    Cnt_spice.Parser.parse
      "inverter VTC\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET\n\
       MN out in 0 CNFET\n.dc VIN 0 0.6 0.005\n.print v(out) id(MN)\n.end\n"
  in
  let n = 121 in
  List.iter
    (fun (backend, iterations, rescues) ->
      let got = ref [] in
      let s = Progress.sink (fun ev -> got := ev :: !got) in
      Obs.reset ();
      Obs.enable ();
      let result =
        Fun.protect ~finally:Obs.disable (fun () ->
            Progress.with_sink s (fun () ->
                Cnt_spice.Engine.run_deck_result
                  ~config:(Cnt_spice.Engine.config ~model:backend ())
                  deck))
      in
      let table =
        match result with
        | Ok [ t ] -> t
        | Ok _ -> Alcotest.fail "expected one table"
        | Error e ->
            Alcotest.failf "%s: %s" backend (Cnt_spice.Diag.error_message e)
      in
      let counter name = List.assoc name (Obs.counters ()) in
      Alcotest.(check int)
        (backend ^ " newton iterations")
        iterations table.stats.newton_iterations;
      Alcotest.(check int)
        (backend ^ " rescues")
        rescues (counter "homotopy.rescues");
      Alcotest.(check int)
        (backend ^ " plain-rung attempts")
        1
        (counter "homotopy.rung.plain-newton");
      let events = List.rev !got in
      let milestones, ticks = List.partition Progress.milestone events in
      Alcotest.(check int) (backend ^ " tick count") n (List.length ticks);
      List.iteri
        (fun i ev ->
          match ev with
          | Progress.Sweep_point { k; n = total; value } ->
              Alcotest.(check int) (backend ^ " tick k") (i + 1) k;
              Alcotest.(check int) (backend ^ " tick n") n total;
              Alcotest.(check bool)
                (Printf.sprintf "%s tick %d value is point %d" backend k i)
                true
                (value = table.rows.(i).(0))
          | _ -> Alcotest.fail "unexpected tick")
        ticks;
      (match (milestones, List.rev milestones) with
      | Progress.Analysis_start _ :: _, Progress.Analysis_finish { points; _ } :: _
        ->
          Alcotest.(check int) (backend ^ " finish points") n points
      | _ -> Alcotest.fail "expected start and finish milestones"))
    [ ("piecewise", 423, 0); ("vs", 619, 1) ]

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
(* CLI: stdout invariance, artefacts                                   *)
(* ------------------------------------------------------------------ *)

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
          tc "dc sweep continuation" test_sweep_continuation;
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
          tc "stdout identical with flags on"
            test_cli_stdout_invariant_with_flags;
          tc "metrics pin scv.fallback_bisection=0"
            test_metrics_pins_scv_fallbacks;
          tc "report manifest shape" test_report_manifest_shape;
          tc "metrics .prom format" test_metrics_prom_format;
          tc "unwritable paths exit 2" test_unwritable_paths_exit_2;
        ] );
    ]
