(* cnt-bench: one harness for the end-to-end and per-layer cost of the
   simulator.  See cntbench/README.md for the workloads and metrics.

     bench.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]

   The process started by that command only orchestrates.  Every
   measurement happens in a fresh child process (this executable again,
   with --child), started one at a time with every CNT_* variable
   removed from its environment, so no process-global state (model
   memos, the compile cache Server.start turns on, ...) leaks from one
   workload or launch into the next.

   --trace 0 reports the end-to-end metrics: op latency quantiles and
   throughput from an untraced closed-loop pass of S seconds, set-up
   time as the median over [setup_launches] fresh processes of the time
   from spawn to the first completed operation, and the child's peak
   RSS.  --trace 1 reports the per-layer metrics: an untraced pass of
   S/2 seconds (the overhead baseline and the GC deltas), then a traced
   pass of a fixed operation count on a fresh workload instance, split
   into layer self times from the Obs span tree.

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; the lines before it
   name every metric with its value and unit. *)

module Obs = Cnt_obs.Obs
module Json = Cnt_server.Json
module Stats = Cnt_numerics.Stats
module Engine = Cnt_spice.Engine

let schema = "cnt-bench/1"
let setup_launches = 5
let warmup_s = 0.5

(* ------------------------------------------------------------------ *)
(* Metric catalogue                                                    *)
(* ------------------------------------------------------------------ *)

let end_to_end =
  [
    ("op_p50_s", "s");
    ("op_p90_s", "s");
    ("ops_per_s", "1/s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
  ]

(* Layer of every span a traced operation can record: the bench's own
   spans around public calls ("bench.*") and the spans the library
   already records.  A layer's self time is the summed duration of its
   spans minus the part their direct children cover. *)
let layer_of_span = function
  | "bench.parse" | "spice.parse" -> "parser"
  | "mna.compile" -> "compile"
  | "bench.run" | "analysis.op" | "analysis.dc" | "analysis.ac" | "analysis.tran"
  | "dc.operating_point" | "dc.sweep" | "tran.run" | "ac.run" ->
      "analysis"
  | "mna.newton" -> "newton"
  | "mna.assemble" | "ac.assemble" -> "assemble"
  | "assemble.gather" -> "device.gather"
  | "assemble.batch_eval" -> "device.batch_eval"
  | "assemble.scatter" -> "device.scatter"
  | "mna.solve" | "ac.solve" -> "solve"
  | "bench.render" -> "render"
  | "bench.model_family" | "cnt_model.eval_batch" -> "core.model_family"
  | "bench.request" -> "server.protocol"
  | "bench.op" -> "harness"
  | _ -> "other"

(* (metric name, layer) for the self-time shares, in % of traced
   operation wall time. *)
let layer_shares =
  [
    ("parser.self_pct", "parser");
    ("compile.self_pct", "compile");
    ("analysis.self_pct", "analysis");
    ("newton.self_pct", "newton");
    ("assemble.self_pct", "assemble");
    ("device.gather_pct", "device.gather");
    ("device.batch_eval_pct", "device.batch_eval");
    ("device.scatter_pct", "device.scatter");
    ("solve.self_pct", "solve");
    ("render.self_pct", "render");
    ("core.model_family_pct", "core.model_family");
    ("server.protocol_pct", "server.protocol");
  ]

(* (metric name, Obs counter) reported per traced operation. *)
let layer_counters =
  [
    ("parser.pattern_compiles", "parse.subckt.pattern_compiles");
    ("parser.pattern_hits", "parse.subckt.pattern_hits");
    ("newton.damped_backtracks", "mna.damped_backtracks");
    ("homotopy.rescues", "homotopy.rescues");
    ("scv.solves", "scv.solves");
    ("scv.root_linear", "scv.root_linear");
    ("scv.root_quadratic", "scv.root_quadratic");
    ("scv.root_cardano", "scv.root_cardano");
    ("scv.fallback_bisection", "scv.fallback_bisection");
    ("tran.steps_accepted", "tran.steps_accepted");
    ("tran.steps_rejected", "tran.steps_rejected");
    ("core.batch_evals", "cnt_model.batch_evals");
  ]

let per_layer =
  List.map (fun (m, _) -> (m, "%")) layer_shares
  @ List.map (fun (m, _) -> (m, "count")) layer_counters
  @ [
      ("newton.iterations", "count");
      ("newton.linear_solves", "count");
      ("device.evals", "count");
      ("compile.unknowns", "count");
      ("compile.nonzeros", "count");
      ("compile.cache_hit_ratio", "ratio");
      ("server.deck_cache_hit_ratio", "ratio");
      ("server.run_pct", "%");
      ("server.piecewise_newton_iterations", "count");
      ("server.vs_newton_iterations", "count");
      ("server.piecewise_device_evals", "count");
      ("server.vs_device_evals", "count");
      ("core.speedup_model1_x", "x");
      ("core.speedup_model2_x", "x");
      ("core.rms_err_model1_pct", "%");
      ("core.rms_err_model2_pct", "%");
      ("gc.minor_words_per_op", "words/op");
      ("gc.major_collections_per_op", "1/op");
      ("trace.overhead_pct", "%");
      ("trace.coverage_pct", "%");
    ]

(* ------------------------------------------------------------------ *)
(* Closed-loop passes (child side)                                     *)
(* ------------------------------------------------------------------ *)

type pass = {
  latencies : float array;
  wall : float;
  failures : string list;
}

let now = Unix.gettimeofday

(* Run operations until [stop] says so, from [clients] closed-loop
   clients (domains when more than one).  Operation indices are drawn
   from [next], so the set of inputs does not depend on the client
   count.  [each] sees every operation's latency and outcome on the
   client that ran it, before its output check. *)
let run_pass (inst : Workload.instance) ~clients ~next ~stop ~each =
  let t0 = now () in
  let client () =
    let latencies = ref [] and failures = ref [] in
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if not (stop i) then begin
        let s = now () in
        let outcome = inst.op i in
        let latency = now () -. s in
        each latency outcome;
        (match outcome.check () with
        | Ok () -> ()
        | Error msg -> failures := msg :: !failures);
        latencies := latency :: !latencies;
        loop ()
      end
    in
    loop ();
    (!latencies, !failures)
  in
  let results =
    if clients <= 1 then [ client () ]
    else List.map Domain.join (List.init clients (fun _ -> Domain.spawn client))
  in
  {
    latencies = Array.of_list (List.concat_map fst results);
    wall = now () -. t0;
    failures = List.concat_map snd results;
  }

let timed ~seconds =
  let deadline = now () +. seconds in
  fun _ -> now () >= deadline

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  find ()

(* ------------------------------------------------------------------ *)
(* Traced pass: layer self times and counters                          *)
(* ------------------------------------------------------------------ *)

type trace_acc = {
  self_s : (string, float) Hashtbl.t;  (* layer -> summed self time *)
  counters : (string, int) Hashtbl.t;
  mutable op_wall : float;
}

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Fold one operation's span tree (Report aggregates it and computes
   each node's self time) into [acc]. *)
let rec fold_profile acc (n : Cnt_obs.Report.node) =
  add acc.self_s (layer_of_span n.name) n.self_s;
  List.iter (fold_profile acc) n.children

(* Work summed from the Mna.stats of the tables operations returned;
   these are the solve-time counts (the Obs counter mna.device_evals
   also counts the one evaluation per CNFET of a symbolic compile). *)
type work = {
  mutable unknowns : int;
  mutable nonzeros : int;
  mutable newton_iterations : int;
  mutable linear_solves : int;
  mutable device_evals : int;
  mutable run_s : float;  (* summed daemon run time *)
  by_model : (string, int * int * int) Hashtbl.t;
      (* backend -> requests, Newton iterations, device evals *)
}

let note_work w (o : Workload.outcome) =
  List.iter
    (fun (t : Engine.table) ->
      w.unknowns <- w.unknowns + t.stats.unknowns;
      w.nonzeros <- w.nonzeros + t.stats.nonzeros;
      w.newton_iterations <- w.newton_iterations + t.stats.newton_iterations;
      w.linear_solves <- w.linear_solves + t.stats.linear_solves;
      w.device_evals <- w.device_evals + t.stats.device_evals)
    o.tables;
  match o.run_s with
  | None -> ()
  | Some run_s ->
      w.run_s <- w.run_s +. run_s;
      let backend = Option.value o.model ~default:"piecewise" in
      let n, it, ev =
        Option.value ~default:(0, 0, 0) (Hashtbl.find_opt w.by_model backend)
      in
      let sum f = List.fold_left (fun acc (t : Engine.table) -> acc + f t.stats) 0 o.tables in
      Hashtbl.replace w.by_model backend
        ( n + 1,
          it + sum (fun s -> s.Cnt_spice.Mna.newton_iterations),
          ev + sum (fun s -> s.Cnt_spice.Mna.device_evals) )

(* Operation indices of the traced pass start here, so its inputs do
   not depend on how many untraced operations ran before it. *)
let traced_base = 1_000_000

let traced_pass (inst : Workload.instance) ~ops =
  let acc =
    {
      self_s = Hashtbl.create 16;
      counters = Hashtbl.create 32;
      op_wall = 0.0;
    }
  in
  let work =
    {
      unknowns = 0;
      nonzeros = 0;
      newton_iterations = 0;
      linear_solves = 0;
      device_evals = 0;
      run_s = 0.0;
      by_model = Hashtbl.create 2;
    }
  in
  let traced =
    {
      inst with
      op =
        (fun i ->
          Obs.reset ();
          Obs.enable ();
          Fun.protect ~finally:Obs.disable (fun () ->
              Obs.span "bench.op" (fun () -> inst.op i)));
    }
  in
  let each latency outcome =
    acc.op_wall <- acc.op_wall +. latency;
    List.iter (fold_profile acc) (Cnt_obs.Report.profile_tree ());
    List.iter
      (fun (name, v) ->
        Hashtbl.replace acc.counters name
          (v + Option.value ~default:0 (Hashtbl.find_opt acc.counters name)))
      (Obs.counters ());
    note_work work outcome
  in
  let deck0 = inst.cache_counts () in
  let compile0 = Cnt_spice.Mna.compile_cache_stats () in
  let pass =
    run_pass traced ~clients:1 ~next:(Atomic.make traced_base)
      ~stop:(fun i -> i >= traced_base + ops)
      ~each
  in
  Obs.reset ();
  let ratio (h0, m0) (h1, m1) =
    let h = h1 - h0 and m = m1 - m0 in
    if h + m = 0 then 0.0 else float_of_int h /. float_of_int (h + m)
  in
  let deck_ratio =
    match (deck0, inst.cache_counts ()) with
    | Some a, Some b -> ratio a b
    | _ -> 0.0
  in
  (pass, acc, work, deck_ratio, ratio compile0 (Cnt_spice.Mna.compile_cache_stats ()))

(* ------------------------------------------------------------------ *)
(* Child processes                                                     *)
(* ------------------------------------------------------------------ *)

(* Everything one measurement child reports to the orchestrator. *)
type child_result = {
  attempted : int;
  failed : int;
  messages : string list;
  metrics : (string * float) list;
  layers_s : (string * float) list;  (* per-op self seconds, traced pass *)
  ops : (string * int) list;
}

let child_result_json r =
  let obj l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l) in
  Json.Obj
    [
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("messages", Json.Arr (List.filteri (fun i _ -> i < 5) r.messages |> List.map (fun m -> Json.Str m)));
      ("metrics", obj r.metrics);
      ("layers_s", obj r.layers_s);
      ("ops", obj (List.map (fun (k, n) -> (k, float_of_int n)) r.ops));
    ]

let first_op (inst : Workload.instance) =
  match (inst.op 0).check () with Ok () -> [] | Error msg -> [ msg ]

(* A set-up launch: build the workload, complete one operation, say so
   and leave. *)
let child_setup (w : Workload.t) ~seed =
  let inst = w.setup ~seed in
  let failures = first_op inst in
  print_endline (if failures = [] then "ready" else "ready failed: " ^ List.hd failures);
  inst.stop ()

let child_run (w : Workload.t) ~seed ~seconds ~trace =
  let inst = w.setup ~seed in
  let first = first_op inst in
  print_endline "ready";
  let next = Atomic.make 1 in
  let warm = run_pass inst ~clients:1 ~next ~stop:(timed ~seconds:warmup_s) ~each:(fun _ _ -> ()) in
  let clients = if trace then 1 else inst.clients in
  let gc0 = Gc.quick_stat () in
  let untraced =
    run_pass inst ~clients ~next
      ~stop:(timed ~seconds:(if trace then seconds /. 2.0 else seconds))
      ~each:(fun _ _ -> ())
  in
  let gc1 = Gc.quick_stat () in
  let rss = peak_rss_mb () in
  let extra = inst.extra () in
  let deferred = inst.finish () in
  inst.stop ();
  let n = Array.length untraced.latencies in
  let p50 = Stats.median untraced.latencies in
  let base_failures = first @ warm.failures @ untraced.failures @ deferred in
  let base_attempted = 1 + Array.length warm.latencies + n in
  if not trace then
    {
      attempted = base_attempted;
      failed = List.length base_failures;
      messages = base_failures;
      metrics =
        [
          ("op_p50_s", p50);
          ("op_p90_s", Stats.percentile untraced.latencies 90.0);
          ("ops_per_s", float_of_int n /. untraced.wall);
          ("peak_rss_mb", rss);
        ];
      layers_s = [];
      ops = [ ("timed", n); ("clients", clients) ];
    }
  else begin
    let inst = w.setup ~seed in
    let pass, acc, work, deck_ratio, compile_ratio = traced_pass inst ~ops:w.trace_ops in
    let deferred = inst.finish () in
    inst.stop ();
    let ops = float_of_int w.trace_ops in
    let self layer = Option.value ~default:0.0 (Hashtbl.find_opt acc.self_s layer) in
    let share layer = 100.0 *. self layer /. acc.op_wall in
    let count c = float_of_int (Option.value ~default:0 (Hashtbl.find_opt acc.counters c)) /. ops in
    let by_model backend =
      match Hashtbl.find_opt work.by_model backend with
      | Some (k, it, ev) -> (float_of_int it /. float_of_int k, float_of_int ev /. float_of_int k)
      | None -> (0.0, 0.0)
    in
    let pw_it, pw_ev = by_model "piecewise" and vs_it, vs_ev = by_model "vs" in
    let covered =
      Hashtbl.fold
        (fun layer s acc -> if layer = "harness" || layer = "other" then acc else acc +. s)
        acc.self_s 0.0
    in
    let extra_or_zero name = Option.value ~default:0.0 (List.assoc_opt name extra) in
    let failures = base_failures @ pass.failures @ deferred in
    {
      attempted = base_attempted + Array.length pass.latencies;
      failed = List.length failures;
      messages = failures;
      metrics =
        List.map (fun (m, layer) -> (m, share layer)) layer_shares
        @ List.map (fun (m, c) -> (m, count c)) layer_counters
        @ [
            ("newton.iterations", float_of_int work.newton_iterations /. ops);
            ("newton.linear_solves", float_of_int work.linear_solves /. ops);
            ("device.evals", float_of_int work.device_evals /. ops);
            ("compile.unknowns", float_of_int work.unknowns /. ops);
            ("compile.nonzeros", float_of_int work.nonzeros /. ops);
            ("compile.cache_hit_ratio", compile_ratio);
            ("server.deck_cache_hit_ratio", deck_ratio);
            ("server.run_pct", 100.0 *. work.run_s /. acc.op_wall);
            ("server.piecewise_newton_iterations", pw_it);
            ("server.vs_newton_iterations", vs_it);
            ("server.piecewise_device_evals", pw_ev);
            ("server.vs_device_evals", vs_ev);
          ]
        @ List.map
            (fun m -> (m, extra_or_zero m))
            [ "core.speedup_model1_x"; "core.speedup_model2_x";
              "core.rms_err_model1_pct"; "core.rms_err_model2_pct" ]
        @ [
            ("gc.minor_words_per_op", (gc1.minor_words -. gc0.minor_words) /. float_of_int n);
            ( "gc.major_collections_per_op",
              float_of_int (gc1.major_collections - gc0.major_collections) /. float_of_int n );
            ("trace.overhead_pct", 100.0 *. ((Stats.median pass.latencies /. p50) -. 1.0));
            ("trace.coverage_pct", 100.0 *. covered /. acc.op_wall);
          ];
      layers_s =
        Hashtbl.fold (fun layer s l -> (layer, s /. ops) :: l) acc.self_s []
        |> List.sort compare;
      ops = [ ("untraced", n); ("traced", w.trace_ops); ("clients", 1) ];
    }
  end

(* ------------------------------------------------------------------ *)
(* Orchestrator                                                        *)
(* ------------------------------------------------------------------ *)

let child_env () =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"CNT_" kv))
  |> Array.of_list

exception Child_failed of string

(* Start this executable with [args]; [on_line] sees each stdout line
   as it arrives.  Returns every line once the child has exited
   successfully. *)
let run_child args ~on_line =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (child_env ()) Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let lines = ref [] in
  (try
     while true do
       let line = input_line ic in
       on_line line;
       lines := line :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> List.rev !lines
  | _, (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c) ->
      raise (Child_failed (Printf.sprintf "%s exited with status %d" (String.concat " " args) c))

(* Wall time from spawn to the child's first completed operation. *)
let setup_launch name ~seed =
  let t0 = now () in
  let ready = ref nan and failed = ref false in
  ignore
    (run_child [ "--child"; "setup"; "--workload"; name; "--seed"; string_of_int seed ]
       ~on_line:(fun line ->
         if String.starts_with ~prefix:"ready" line then begin
           ready := now () -. t0;
           failed := line <> "ready"
         end));
  (!ready, !failed)

let measure_launch name ~seed ~seconds ~trace =
  let lines =
    run_child
      [ "--child"; "run"; "--workload"; name; "--seed"; string_of_int seed;
        "--seconds"; Printf.sprintf "%.17g" seconds; "--trace"; (if trace then "1" else "0") ]
      ~on_line:ignore
  in
  let last = List.nth lines (List.length lines - 1) in
  match Json.parse last with
  | Error msg -> raise (Child_failed ("unreadable child result: " ^ msg))
  | Ok j ->
      let num_obj key =
        match Json.member key j with
        | Some (Json.Obj l) -> List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) l
        | _ -> []
      in
      let int key = Option.value ~default:0 (Option.bind (Json.member key j) Json.to_int) in
      {
        attempted = int "attempted";
        failed = int "failed";
        messages =
          (match Json.member "messages" j with
          | Some (Json.Arr l) -> List.filter_map Json.to_str l
          | _ -> []);
        metrics = num_obj "metrics";
        layers_s = num_obj "layers_s";
        ops = List.map (fun (k, f) -> (k, int_of_float f)) (num_obj "ops");
      }

(* One driver-style run: every end-to-end (trace 0) or per-layer
   (trace 1) metric of one workload. *)
let run_workload (w : Workload.t) ~seed ~seconds ~trace =
  let setup =
    if trace then []
    else List.init setup_launches (fun _ -> setup_launch w.name ~seed)
  in
  let r = measure_launch w.name ~seed ~seconds ~trace in
  let setup_failed = List.length (List.filter snd setup) in
  let metrics =
    if trace then r.metrics
    else ("setup_s", Stats.median (Array.of_list (List.map fst setup))) :: r.metrics
  in
  let catalogue = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name metrics with
        | Some v -> (name, v, unit)
        | None -> raise (Child_failed ("child did not report " ^ name)))
      catalogue
  in
  ( { r with attempted = r.attempted + List.length setup; failed = r.failed + setup_failed },
    metrics,
    List.map fst setup )

let git_commit () =
  let read path = try Some (String.trim (Workload.read_file path)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head ->
      let ref_name = String.sub head 5 (String.length head - 5) in
      Option.value ~default:"unknown" (read (Filename.concat ".git" ref_name))
  | Some sha -> sha
  | None -> "unknown"

let metric_json (name, v, unit) =
  (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])

(* Render with one member per line, so committed artifacts diff well. *)
let rec pretty indent = function
  | Json.Obj (_ :: _ as l) ->
      let pad = String.make (indent + 2) ' ' in
      "{\n"
      ^ String.concat ",\n"
          (List.map (fun (k, v) -> pad ^ Json.to_string (Json.Str k) ^ ": " ^ pretty (indent + 2) v) l)
      ^ "\n" ^ String.make indent ' ' ^ "}"
  | Json.Arr (_ :: _ as l) when List.exists (function Json.Obj _ -> true | _ -> false) l ->
      let pad = String.make (indent + 2) ' ' in
      "[\n"
      ^ String.concat ",\n" (List.map (fun v -> pad ^ pretty (indent + 2) v) l)
      ^ "\n" ^ String.make indent ' ' ^ "]"
  | v -> Json.to_string v

let usage =
  "bench.exe --workload NAME|all --seed N --seconds S --trace 0|1 [--out FILE]"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0
  and out = ref "" and child = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S length of the timed pass (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--out", Arg.Set_string out, "FILE also write the cnt-bench/1 artifact");
      ("--child", Arg.Set_string child, " (internal) setup|run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let find name =
    match Workload.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (known: %s)\n" name
          (String.concat ", " (List.map (fun (w : Workload.t) -> w.name) Workload.all));
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0.0 then (prerr_endline usage; exit 2);
  match !child with
  | "setup" -> child_setup (find !workload) ~seed:!seed
  | "run" ->
      let r = child_run (find !workload) ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      print_endline (Json.to_string (child_result_json r))
  | "" ->
      let ws = if !workload = "all" then Workload.all else [ find !workload ] in
      let traces = if !workload = "all" then [ false; true ] else [ !trace = 1 ] in
      let runs =
        try
          List.concat_map
            (fun (w : Workload.t) ->
              List.map
                (fun trace ->
                  let r, metrics, setup = run_workload w ~seed:!seed ~seconds:!seconds ~trace in
                  List.iteri
                    (fun i m -> if i < 5 then prerr_endline (w.name ^ ": " ^ m))
                    r.messages;
                  List.iter
                    (fun (name, v, unit) ->
                      if List.length ws = 1 then Printf.printf "%s %.6g %s\n" name v unit
                      else Printf.printf "%s %s %.6g %s\n" w.name name v unit)
                    metrics;
                  (w, trace, r, metrics, setup))
                traces)
            ws
        with Child_failed msg ->
          prerr_endline ("cnt-bench: " ^ msg);
          exit 1
      in
      let attempted = List.fold_left (fun a (_, _, r, _, _) -> a + r.attempted) 0 runs in
      let failed = List.fold_left (fun a (_, _, r, _, _) -> a + r.failed) 0 runs in
      if !out <> "" then begin
        let artifact =
          Json.Obj
            [
              ("schema", Json.Str schema);
              ( "host",
                Json.Obj
                  [
                    ("recommended_domain_count", Json.Num (float_of_int (Domain.recommended_domain_count ())));
                    ("ocaml_version", Json.Str Sys.ocaml_version);
                    ("cnt_version", Json.Str Cnt_obs.Version.version);
                    ("git_commit", Json.Str (git_commit ()));
                  ] );
              ("seed", Json.Num (float_of_int !seed));
              ("seconds", Json.Num !seconds);
              ( "runs",
                Json.Arr
                  (List.map
                     (fun ((w : Workload.t), trace, r, metrics, setup) ->
                       Json.Obj
                         [
                           ("workload", Json.Str w.name);
                           ("trace", Json.Num (if trace then 1.0 else 0.0));
                           ("attempted", Json.Num (float_of_int r.attempted));
                           ("failed", Json.Num (float_of_int r.failed));
                           ("ops", Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) r.ops));
                           ("setup_samples_s", Json.Arr (List.map (fun s -> Json.Num s) setup));
                           ("metrics", Json.Obj (List.map metric_json metrics));
                           ("layers_s", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.layers_s));
                         ])
                     runs) );
            ]
        in
        let oc = open_out !out in
        output_string oc (pretty 0 artifact ^ "\n");
        close_out oc
      end;
      let metrics =
        List.concat_map
          (fun ((w : Workload.t), _, _, metrics, _) ->
            List.map
              (fun (name, v, unit) ->
                metric_json ((if List.length ws = 1 then name else w.name ^ "." ^ name), v, unit))
              metrics)
          runs
      in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (failed = 0));
                ("attempted", Json.Num (float_of_int attempted));
                ("failed", Json.Num (float_of_int failed));
                ("metrics", Json.Obj metrics);
              ]))
  | c ->
      Printf.eprintf "unknown --child mode %S\n" c;
      exit 2
