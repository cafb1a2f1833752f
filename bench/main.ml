(* Microbenchmarks for every table and figure of the paper (bechamel).

   Each group maps to one experiment:

     table1  - evaluation cost: reference vs Model 1 vs Model 2, per
               bias point and per characteristic family (the paper's
               CPU-time workload)
     table2  - accuracy-table workload at E_F = -0.32 eV (one V_DS
               sweep per model)
     table3  - same at E_F = -0.5 eV
     table4  - same at E_F = 0 eV
     table5  - synthetic-measurement generation and Javey-device model
               evaluation
     fig2/3  - one-off fitting cost of Model 1 / Model 2
     fig4/5  - charge-curve evaluation: theory integral vs piecewise
     fig6/7  - full output family generation, Model 1 / Model 2
     fig8/9  - Model 2 sweeps at the extreme conditions
     fig10/11- measured-curve generation for the comparison figures
     ablation- solver internals: closed-form V_SC solve vs bracketed
               Newton + quadrature, and the table-lookup variant

   Wall-clock totals for the paper's exact loop counts are produced by
   `repro table1` (bin/repro.ml); these microbenchmarks give the
   statistically robust per-call costs behind them. *)

open Bechamel
open Toolkit
open Cnt_physics
open Cnt_core

let device = Device.default
let reference = Fettoy.create device
let model1 = Cnt_model.model1 ()
let model2 = Cnt_model.model2 ()
let table_model = Table_model.make device

let vds_points = Cnt_experiments.Workloads.vds_points
let family_vgs = Cnt_experiments.Workloads.family_vgs

(* devices of the other table conditions *)
let cond_ef05 = Device.create ~fermi:(-0.5) ()
let model2_ef05 = Cnt_model.make ~spec:Charge_fit.model2_spec cond_ef05
let model1_ef05 = Cnt_model.make ~spec:Charge_fit.model1_spec cond_ef05
let cond_ef0 = Device.create ~fermi:0.0 ()
let model2_ef0 = Cnt_model.make ~spec:Charge_fit.model2_spec cond_ef0
let model1_ef0 = Cnt_model.make ~spec:Charge_fit.model1_spec cond_ef0
let cond_150_ef0 = Device.create ~temp:150.0 ~fermi:0.0 ()
let model2_150 = Cnt_model.make ~spec:Charge_fit.model2_spec cond_150_ef0
let cond_450_ef05 = Device.create ~temp:450.0 ~fermi:(-0.5) ()
let model2_450 = Cnt_model.make ~spec:Charge_fit.model2_spec cond_450_ef05

let javey = Device.javey
let javey_reference = Fettoy.create javey
let javey_model1 = Cnt_model.make ~spec:Charge_fit.model1_spec javey
let javey_model2 = Cnt_model.make ~spec:Charge_fit.model2_spec javey

let profile = Device.charge_profile device
let n0 = Charge.equilibrium profile

let sweep model vgs =
  Array.map (fun vds -> Cnt_model.ids model ~vgs ~vds) vds_points

let stage_unit f = Staged.stage (fun () -> ignore (f ()))

(* Table I: per-bias-point and per-family evaluation cost. *)
let table1 =
  Test.make_grouped ~name:"table1"
    [
      Test.make ~name:"reference_point"
        (stage_unit (fun () -> Fettoy.ids reference ~vgs:0.5 ~vds:0.3));
      Test.make ~name:"model1_point"
        (stage_unit (fun () -> Cnt_model.ids model1 ~vgs:0.5 ~vds:0.3));
      Test.make ~name:"model2_point"
        (stage_unit (fun () -> Cnt_model.ids model2 ~vgs:0.5 ~vds:0.3));
      Test.make ~name:"model1_family_7x61"
        (stage_unit (fun () ->
             Cnt_model.output_family model1 ~vgs_list:family_vgs ~vds_points));
      Test.make ~name:"model2_family_7x61"
        (stage_unit (fun () ->
             Cnt_model.output_family model2 ~vgs_list:family_vgs ~vds_points));
    ]

(* Tables II-IV: the accuracy-table sweep workload per condition. *)
let table_sweeps name m1 m2 =
  Test.make_grouped ~name
    [
      Test.make ~name:"model1_sweep_61pt" (stage_unit (fun () -> sweep m1 0.5));
      Test.make ~name:"model2_sweep_61pt" (stage_unit (fun () -> sweep m2 0.5));
    ]

let table2 = table_sweeps "table2_ef-0.32" model1 model2
let table3 = table_sweeps "table3_ef-0.5" model1_ef05 model2_ef05
let table4 = table_sweeps "table4_ef0" model1_ef0 model2_ef0

(* Table V / figs 10-11: synthetic measurement and Javey models. *)
let table5 =
  Test.make_grouped ~name:"table5_javey"
    [
      Test.make ~name:"synthetic_measurement_point"
        (stage_unit (fun () ->
             Cnt_experiments.Experimental.measure javey_reference ~vgs:0.4 ~vds:0.3));
      Test.make ~name:"javey_model1_point"
        (stage_unit (fun () -> Cnt_model.ids javey_model1 ~vgs:0.4 ~vds:0.3));
      Test.make ~name:"javey_model2_point"
        (stage_unit (fun () -> Cnt_model.ids javey_model2 ~vgs:0.4 ~vds:0.3));
    ]

(* Figs 2-3: one-off fitting cost (the price paid at model build). *)
let fig23 =
  Test.make_grouped ~name:"fig2_fig3_fitting"
    [
      Test.make ~name:"fit_model1"
        (stage_unit (fun () -> Charge_fit.fit profile Charge_fit.model1_spec));
      Test.make ~name:"fit_model2"
        (stage_unit (fun () -> Charge_fit.fit profile Charge_fit.model2_spec));
    ]

(* Figs 4-5: charge-curve evaluation, integral vs piecewise. *)
let fig45 =
  let approx1 = Cnt_model.charge_approx model1 in
  let approx2 = Cnt_model.charge_approx model2 in
  Test.make_grouped ~name:"fig4_fig5_charge"
    [
      Test.make ~name:"qs_theory_integral"
        (stage_unit (fun () -> Charge.qs ~n0 profile (-0.4)));
      Test.make ~name:"qs_model1_piecewise"
        (stage_unit (fun () -> Piecewise.eval approx1 (-0.4)));
      Test.make ~name:"qs_model2_piecewise"
        (stage_unit (fun () -> Piecewise.eval approx2 (-0.4)));
    ]

(* Figs 6-9: characteristic families at each figure's condition. *)
let fig69 =
  Test.make_grouped ~name:"fig6_to_fig9_families"
    [
      Test.make ~name:"fig6_model1_family"
        (stage_unit (fun () ->
             Cnt_model.output_family model1 ~vgs_list:family_vgs ~vds_points));
      Test.make ~name:"fig7_model2_family"
        (stage_unit (fun () ->
             Cnt_model.output_family model2 ~vgs_list:family_vgs ~vds_points));
      Test.make ~name:"fig8_model2_150K_ef0_sweep"
        (stage_unit (fun () -> sweep model2_150 0.4));
      Test.make ~name:"fig9_model2_450K_ef-0.5_sweep"
        (stage_unit (fun () -> sweep model2_450 0.5));
    ]

let fig1011 =
  Test.make_grouped ~name:"fig10_fig11_javey"
    [
      Test.make ~name:"measured_curve_41pt"
        (stage_unit (fun () ->
             Cnt_experiments.Experimental.measured_curve javey_reference ~vgs:0.4));
      Test.make ~name:"javey_model2_sweep_41pt"
        (stage_unit (fun () ->
             Array.map
               (fun vds -> Cnt_model.ids javey_model2 ~vgs:0.4 ~vds)
               Cnt_experiments.Experimental.vds_points));
    ]

(* Ablation: where the speed-up comes from. *)
let ablation =
  let solver = Cnt_model.solver model2 in
  let qt = Device.terminal_charge device ~vgs:0.5 ~vds:0.3 in
  Test.make_grouped ~name:"ablation_solver"
    [
      Test.make ~name:"closed_form_vsc_solve"
        (stage_unit (fun () -> Scv_solver.solve solver ~qt ~vds:0.3));
      Test.make ~name:"reference_newton_quadrature_vsc"
        (stage_unit (fun () -> Fettoy.solve_vsc reference ~vgs:0.5 ~vds:0.3));
      Test.make ~name:"table_lookup_point"
        (stage_unit (fun () -> Table_model.ids table_model ~vgs:0.5 ~vds:0.3));
      Test.make ~name:"ids_from_known_vsc"
        (stage_unit (fun () -> Fettoy.ids_of_vsc reference ~vds:0.3 (-0.34)));
    ]

(* Circuit-level cost with the model embedded in the SPICE substrate:
   one inverter operating point, one VTC sweep point, one AC point. *)
let spice_group =
  let open Cnt_spice in
  let p_model = Cnt_model.model2 ~polarity:Cnt_model.P_type () in
  let inverter vin =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc ~ac:1.0 "vin" "in" "0" vin;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" model2;
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd" p_model;
      ]
  in
  let mid = inverter 0.3 in
  Test.make_grouped ~name:"spice_substrate"
    [
      Test.make ~name:"inverter_dc_op"
        (stage_unit (fun () -> Dc.operating_point mid));
      Test.make ~name:"inverter_vtc_13pt"
        (stage_unit (fun () ->
             Dc.sweep (inverter 0.0) ~source:"vin" ~start:0.0 ~stop:0.6 ~step:0.05));
      Test.make ~name:"inverter_ac_point"
        (stage_unit (fun () -> Ac.run mid ~freqs:[| 1e9 |]));
    ]

(* Scaling: N-stage CNFET ring-oscillator transient, dense vs sparse
   linear solver.  The per-iteration matrix work is O(n^3) dense versus
   near-linear for the sparse LU on these banded-ish MNA patterns, so
   the gap widens with stage count.  `main scaling-json` runs the same
   workload standalone and emits JSON (committed as
   results/BENCH_sparse.json). *)
let ring_stages = [ 5; 21; 51 ]

let ring_circuits =
  lazy
    (let f = Cnt_spice.Stdcells.family ~length:100e-9 () in
     List.map
       (fun stages ->
         let cells, _out =
           Cnt_spice.Stdcells.ring_oscillator f ~prefix:"r" ~stages
             ~vdd_node:"vdd"
         in
         (stages, Cnt_spice.Stdcells.bench f ~stimuli:[] ~cells))
       ring_stages)

let ring_tran backend circuit ~tstop =
  Cnt_spice.Transient.run ~backend circuit ~tstep:1e-12 ~tstop

let scaling_group =
  let open Cnt_numerics in
  Test.make_grouped ~name:"scaling"
    (List.concat_map
       (fun (stages, circuit) ->
         List.map
           (fun (bname, backend) ->
             Test.make
               ~name:(Printf.sprintf "ring%d_tran_%s" stages bname)
               (stage_unit (fun () ->
                    ring_tran backend circuit ~tstop:2e-11)))
           [
             ("dense", Linear_solver.Dense_backend);
             ("sparse", Linear_solver.Sparse_backend);
           ])
       (Lazy.force ring_circuits))

(* Telemetry overhead: the same workload with the obs registry off
   (the default) and on.  The disabled numbers guard the "< 5 %
   slowdown when off" budget; the enabled run also shows what full
   span/counter collection costs.  `main obs-overhead` runs the same
   comparison standalone with wall-clock timing and JSON output
   (committed as results/BENCH_obs.json). *)
let obs_workloads =
  let open Cnt_spice in
  let p_model = lazy (Cnt_model.model2 ~polarity:Cnt_model.P_type ()) in
  let inverter () =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc "vin" "in" "0" 0.0;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" model2;
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd"
          (Lazy.force p_model);
      ]
  in
  [
    ( "model2_family_7x61",
      fun () ->
        ignore (Cnt_model.output_family model2 ~vgs_list:family_vgs ~vds_points)
    );
    ( "inverter_vtc_13pt",
      fun () ->
        ignore
          (Dc.sweep (inverter ()) ~source:"vin" ~start:0.0 ~stop:0.6 ~step:0.05)
    );
    ( "ring5_tran_20ps",
      fun () ->
        let _, circuit = List.hd (Lazy.force ring_circuits) in
        ignore
          (Cnt_spice.Transient.run ~backend:Cnt_numerics.Linear_solver.Auto
             circuit ~tstep:1e-12 ~tstop:2e-11) );
  ]

let obs_overhead_group =
  let open Cnt_obs in
  Test.make_grouped ~name:"obs_overhead"
    (List.concat_map
       (fun (name, work) ->
         [
           Test.make ~name:(name ^ "_off")
             (stage_unit (fun () ->
                  Obs.disable ();
                  work ()));
           Test.make ~name:(name ^ "_on")
             (stage_unit (fun () ->
                  Obs.reset ();
                  Obs.enable ();
                  work ();
                  Obs.disable ()));
         ])
       obs_workloads)

(* Standalone overhead run: best-of-N wall clock per workload with the
   registry off and on, plus the enabled run's per-phase span totals
   and counters, as JSON on stdout. *)
let obs_overhead_json ~repeats =
  let open Cnt_obs in
  let best f =
    let b = ref infinity in
    for _ = 1 to 1 + repeats do
      (* first run warms caches and is discarded on ties *)
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !b then b := dt
    done;
    !b
  in
  Obs.disable ();
  let entries =
    List.map
      (fun (name, work) ->
        let off_s = best work in
        Obs.reset ();
        Obs.enable ();
        let on_s =
          best (fun () ->
              Obs.reset ();
              work ())
        in
        let phases = Report.phases_json () in
        Obs.disable ();
        (* progress-stream cost in isolation: registry off, a null
           throttled sink installed — what --progress adds to a run *)
        let progress_s =
          Progress.with_sink
            (Progress.sink ~min_interval:0.1 (fun _ -> ()))
            (fun () -> best work)
        in
        Printf.sprintf
          "    {\"workload\": \"%s\", \"disabled_s\": %.6g, \"enabled_s\": \
           %.6g, \"overhead_pct\": %.2f, \"progress_s\": %.6g, \
           \"progress_overhead_pct\": %.2f,\n     \"enabled_phases\": %s}"
          name off_s on_s
          (100.0 *. ((on_s /. off_s) -. 1.0))
          progress_s
          (100.0 *. ((progress_s /. off_s) -. 1.0))
          phases)
      obs_workloads
  in
  print_string "{\n";
  print_string "  \"benchmark\": \"telemetry_overhead\",\n";
  Printf.printf "  \"repeats\": %d,\n" repeats;
  print_string "  \"time_metric\": \"best_wall_clock_s\",\n";
  print_string
    "  \"note\": \"disabled is the default mode; its cost vs pre-telemetry \
     code is one branch per instrument call\",\n";
  print_string "  \"results\": [\n";
  print_string (String.concat ",\n" entries);
  print_string "\n  ]\n}\n"

(* Standalone scaling run with wall-clock timing, as JSON on stdout. *)
let scaling_json () =
  let open Cnt_numerics in
  let tstep = 1e-12 and tstop = 1e-10 in
  let repeats = 5 in
  let measure backend circuit =
    let best = ref infinity and stats = ref None in
    for k = 1 to 1 + repeats do
      (* first run warms caches and is discarded *)
      let t0 = Unix.gettimeofday () in
      let r = Cnt_spice.Transient.run ~backend circuit ~tstep ~tstop in
      let dt = Unix.gettimeofday () -. t0 in
      if k > 1 && dt < !best then begin
        best := dt;
        stats := Some (Cnt_spice.Transient.stats r)
      end
    done;
    (!best, Option.get !stats)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"cnfet_ring_oscillator_transient\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"tstep_s\": %g,\n  \"tstop_s\": %g,\n  \"repeats\": %d,\n"
       tstep tstop repeats);
  Buffer.add_string buf "  \"time_metric\": \"best_wall_clock_s\",\n";
  Buffer.add_string buf "  \"results\": [\n";
  let entries =
    List.map
      (fun (stages, circuit) ->
        let dense_s, dstats = measure Linear_solver.Dense_backend circuit in
        let sparse_s, sstats = measure Linear_solver.Sparse_backend circuit in
        Printf.sprintf
          "    {\"stages\": %d, \"unknowns\": %d, \"dense_nnz\": %d, \
           \"sparse_nnz\": %d, \"dense_s\": %.6g, \"sparse_s\": %.6g, \
           \"speedup\": %.3g, \"dense_solve_s\": %.6g, \"sparse_solve_s\": \
           %.6g, \"solve_speedup\": %.3g}"
          stages dstats.Cnt_spice.Mna.unknowns dstats.Cnt_spice.Mna.nonzeros
          sstats.Cnt_spice.Mna.nonzeros dense_s sparse_s (dense_s /. sparse_s)
          dstats.Cnt_spice.Mna.solve_s sstats.Cnt_spice.Mna.solve_s
          (dstats.Cnt_spice.Mna.solve_s /. sstats.Cnt_spice.Mna.solve_s))
      (Lazy.force ring_circuits)
  in
  Buffer.add_string buf (String.concat ",\n" entries);
  Buffer.add_string buf "\n  ]\n}\n";
  print_string (Buffer.contents buf)

(* Parallel scaling: the same deterministic workloads on the domain
   pool at 1 and 4 domains.  Outputs are byte-identical at every jobs
   count (see docs/PARALLEL.md); only wall-clock changes, and only when
   the host actually has spare cores.  `main parallel-json` runs the
   jobs in {1, 2, 4} sweep standalone and emits JSON (committed as
   results/BENCH_parallel.json). *)
let parallel_workloads =
  let open Cnt_spice in
  let open Cnt_experiments in
  let mc_config count = { Variation.default_config with count; seed = 42L } in
  let p_model = lazy (Cnt_model.model2 ~polarity:Cnt_model.P_type ()) in
  let inverter () =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc "vin" "in" "0" 0.0;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" model2;
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd"
          (Lazy.force p_model);
      ]
  in
  [
    ( "variation_mc_96",
      fun jobs -> ignore (Variation.run ~config:(mc_config 96) ~jobs ()) );
    ( "inverter_vtc_241pt",
      fun jobs ->
        ignore
          (Dc.sweep (inverter ()) ~jobs ~source:"vin" ~start:0.0 ~stop:0.6
             ~step:0.0025) );
  ]

let parallel_group =
  Test.make_grouped ~name:"parallel"
    (List.concat_map
       (fun (name, work) ->
         List.map
           (fun jobs ->
             Test.make
               ~name:(Printf.sprintf "%s_j%d" name jobs)
               (stage_unit (fun () -> work jobs)))
           [ 1; 4 ])
       parallel_workloads)

(* Standalone parallel-scaling run: best-of-N wall clock per workload
   at jobs in {1, 2, 4}, as JSON on stdout.  host_cores records what
   the machine can actually run concurrently — on a single-core host
   extra domains are a net wall-clock cost (time-slicing plus OCaml 5's
   stop-the-world minor-GC sync across running domains), so the
   speedups there quantify the oversubscription penalty, not the
   pool. *)
let parallel_json ~repeats =
  let jobs_list = [ 1; 2; 4 ] in
  let best f =
    let b = ref infinity in
    for k = 1 to 1 + repeats do
      (* first run warms caches and is discarded *)
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if k > 1 && dt < !b then b := dt
    done;
    !b
  in
  let entries =
    List.map
      (fun (name, work) ->
        let timed =
          List.map (fun jobs -> (jobs, best (fun () -> work jobs))) jobs_list
        in
        let base_s = List.assoc 1 timed in
        let cells =
          List.map
            (fun (jobs, s) ->
              Printf.sprintf
                "      {\"jobs\": %d, \"wall_s\": %.6g, \"speedup\": %.3g}"
                jobs s (base_s /. s))
            timed
        in
        Printf.sprintf "    {\"workload\": \"%s\", \"runs\": [\n%s\n    ]}"
          name
          (String.concat ",\n" cells))
      parallel_workloads
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"parallel_scaling\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"host_cores\": %d,\n"
       (Domain.recommended_domain_count ()));
  Buffer.add_string buf (Printf.sprintf "  \"repeats\": %d,\n" repeats);
  Buffer.add_string buf "  \"time_metric\": \"best_wall_clock_s\",\n";
  Buffer.add_string buf
    "  \"note\": \"outputs are byte-identical at every jobs count; speedup \
     needs host_cores > 1 -- when domains outnumber cores they time-slice \
     and pay stop-the-world minor-GC sync, so speedup < 1 quantifies the \
     oversubscription penalty, not the pool\",\n";
  Buffer.add_string buf "  \"results\": [\n";
  Buffer.add_string buf (String.concat ",\n" entries);
  Buffer.add_string buf "\n  ]\n}\n";
  print_string (Buffer.contents buf)

(* Convergence ladder: on an easy deck the ladder's first rung IS the
   old plain Newton solve and the rescue rungs never run, so the only
   added cost is the strategy-trail bookkeeping — it must stay within
   noise (<2%) of a plain-only solve.  The hard bias network from
   test/decks/hard_bias.cir quantifies what an actual gmin-stepping
   rescue costs.  `main convergence-json` runs the comparison
   standalone and emits JSON (committed as
   results/BENCH_convergence.json). *)
let convergence_workloads =
  let open Cnt_spice in
  let p_model = lazy (Cnt_model.model2 ~polarity:Cnt_model.P_type ()) in
  let inverter vin =
    Circuit.create
      [
        Circuit.vdc "vdd" "vdd" "0" 0.6;
        Circuit.vdc "vin" "in" "0" vin;
        Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" model2;
        Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd"
          (Lazy.force p_model);
      ]
  in
  [
    ( "inverter_op",
      fun policy -> ignore (Dc.operating_point ~policy (inverter 0.3)) );
    ( "inverter_vtc_13pt",
      fun policy ->
        ignore
          (Dc.sweep ~policy (inverter 0.0) ~source:"vin" ~start:0.0 ~stop:0.6
             ~step:0.05) );
  ]

(* The committed hard deck's bias network: 1 uA into 120 Mohm puts the
   sense node ~240 clamped Newton steps from the zero guess, so plain
   Newton exhausts its budget and the gmin ramp does the work. *)
let hard_bias_circuit () =
  let open Cnt_spice in
  Circuit.create
    [
      Circuit.isource "i1" "0" "nhv" (Waveform.dc 1e-6);
      Circuit.resistor "ra" "nhv" "ngate" 119.6e6;
      Circuit.resistor "rb" "ngate" "0" 0.4e6;
      Circuit.vdc "vdd" "vdd" "0" 0.9;
      Circuit.resistor "rd" "vdd" "out" 100e3;
      Circuit.cnfet "m1" ~drain:"out" ~gate:"ngate" ~source:"0" model2;
    ]

let convergence_group =
  let open Cnt_spice in
  Test.make_grouped ~name:"convergence"
    (List.concat_map
       (fun (name, work) ->
         [
           Test.make
             ~name:(name ^ "_ladder")
             (stage_unit (fun () -> work Homotopy.default));
           Test.make ~name:(name ^ "_plain")
             (stage_unit (fun () -> work Homotopy.plain_only));
         ])
       convergence_workloads
    @ [
        Test.make ~name:"hard_bias_gmin_rescue"
          (stage_unit (fun () -> Dc.operating_point (hard_bias_circuit ())));
      ])

let convergence_json ~repeats =
  let open Cnt_spice in
  (* each timed sample runs [inner] solves so the sample is a few ms
     long and clock jitter cannot masquerade as ladder overhead *)
  let sample ~inner f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to inner do
      f ()
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int inner
  in
  let best ~inner f =
    let b = ref infinity in
    ignore (sample ~inner f);
    (* warm-up, discarded *)
    for _ = 1 to repeats do
      let dt = sample ~inner f in
      if dt < !b then b := dt
    done;
    !b
  in
  (* paired measurement with alternating samples, so slow drift of the
     host (thermal throttling, GC heap growth) hits both arms equally
     instead of always penalising whichever is measured second *)
  let best2 ~inner f g =
    let bf = ref infinity and bg = ref infinity in
    ignore (sample ~inner f);
    ignore (sample ~inner g);
    for _ = 1 to repeats do
      let df = sample ~inner f in
      if df < !bf then bf := df;
      let dg = sample ~inner g in
      if dg < !bg then bg := dg
    done;
    (!bf, !bg)
  in
  let entry name plain_s ladder_s =
    Printf.sprintf
      "    {\"workload\": \"%s\", \"plain_s\": %.6g, \"ladder_s\": %.6g, \
       \"overhead_pct\": %.2f}"
      name plain_s ladder_s
      (100.0 *. ((ladder_s /. plain_s) -. 1.0))
  in
  let easy =
    (* seed-equivalent baseline: a raw Mna.newton solve on a compiled
       circuit versus the same solve entering through the ladder *)
    let op_entry =
      let c =
        Mna.compile
          (Circuit.create
             [
               Circuit.vdc "vdd" "vdd" "0" 0.6;
               Circuit.vdc "vin" "in" "0" 0.3;
               Circuit.cnfet "mn" ~drain:"out" ~gate:"in" ~source:"0" model2;
               Circuit.cnfet "mp" ~drain:"out" ~gate:"in" ~source:"vdd"
                 (Cnt_model.model2 ~polarity:Cnt_model.P_type ());
             ])
      in
      let eval_wave _ w = Cnt_spice.Waveform.dc_value w in
      let x0 () = Array.make (Mna.size c) 0.0 in
      let raw_s, ladder_s =
        best2 ~inner:50
          (fun () ->
            ignore (Mna.newton c ~eval_wave ~cap:Mna.Open_circuit (x0 ())))
          (fun () ->
            ignore (Homotopy.solve c ~eval_wave ~cap:Mna.Open_circuit (x0 ())))
      in
      entry "inverter_op_compiled" raw_s ladder_s
    in
    let policy_entries =
      List.map
        (fun (name, work) ->
          let plain_s, ladder_s =
            best2 ~inner:8
              (fun () -> work Homotopy.plain_only)
              (fun () -> work Homotopy.default)
          in
          entry name plain_s ladder_s)
        convergence_workloads
    in
    op_entry :: policy_entries
  in
  let hard =
    let c = Mna.compile (hard_bias_circuit ()) in
    let x0 () = Array.make (Mna.size c) 0.0 in
    let eval_wave _ w = Waveform.dc_value w in
    let rescued_by =
      match Homotopy.solve c ~eval_wave ~cap:Mna.Open_circuit (x0 ()) with
      | Ok (_, trail) ->
          Diag.rung_name
            (List.nth trail (List.length trail - 1)).Diag.rung
      | Error _ -> "none"
    in
    let rescue_s =
      best ~inner:2 (fun () ->
          ignore
            (Homotopy.solve c ~eval_wave ~cap:Mna.Open_circuit (x0 ())))
    in
    let fail_s =
      best ~inner:2 (fun () ->
          ignore
            (Homotopy.solve ~policy:Homotopy.plain_only c ~eval_wave
               ~cap:Mna.Open_circuit (x0 ())))
    in
    [
      Printf.sprintf
        "    {\"workload\": \"hard_bias\", \"rescued_by\": \"%s\", \
         \"rescue_s\": %.6g, \"plain_fail_s\": %.6g}"
        rescued_by rescue_s fail_s;
    ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"convergence_ladder\",\n";
  Buffer.add_string buf (Printf.sprintf "  \"repeats\": %d,\n" repeats);
  Buffer.add_string buf "  \"time_metric\": \"best_wall_clock_s\",\n";
  Buffer.add_string buf
    "  \"note\": \"the ladder's first rung is the unchanged plain Newton \
     solve, so on decks that converge plainly the only added cost is trail \
     bookkeeping (overhead_pct target < 2); hard_bias needs the gmin ramp, \
     and plain_fail_s is what the doomed 200-iteration plain attempt \
     costs before escalation\",\n";
  Buffer.add_string buf "  \"easy_decks\": [\n";
  Buffer.add_string buf (String.concat ",\n" easy);
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf "  \"hard_decks\": [\n";
  Buffer.add_string buf (String.concat ",\n" hard);
  Buffer.add_string buf "\n  ]\n}\n";
  print_string (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Daemon round-trip throughput (ISSUE 8).

   Requests/sec and latency percentiles for cnt-rpc/1 round trips over
   a mixed golden-deck workload against an in-process Server, in two
   configurations: COLD runs every request through a full parse +
   symbolic compile (deck cache sized to one entry with two alternating
   decks, compile cache disabled), WARM shares the canonical parsed
   deck and the compiled template across requests the way a long-lived
   cntd does.  Each request opens its own connection, mirroring one
   `cspice --connect` invocation.  `main server-json` emits the JSON
   artefact (committed as results/BENCH_server.json). *)

let server_json ~requests =
  let find_deck name =
    let candidates =
      [
        Filename.concat "test/decks" name;
        Filename.concat
          (Filename.dirname Sys.executable_name)
          (Filename.concat "../test/decks" name);
      ]
    in
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> failwith ("server bench: cannot find deck " ^ name)
  in
  let read_deck path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let decks =
    [|
      read_deck (find_deck "golden_divider.cir");
      read_deck (find_deck "golden_inverter.cir");
    |]
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cnt-bench-%d.sock" (Unix.getpid ()))
  in
  let config = Cnt_spice.Engine.default_config in
  let one_request deck_text =
    let t0 = Unix.gettimeofday () in
    (match Cnt_server.Client.connect sock with
    | Error msg -> failwith ("server bench: connect: " ^ msg)
    | Ok conn -> (
        Fun.protect ~finally:(fun () -> Cnt_server.Client.close conn)
        @@ fun () ->
        match
          Cnt_server.Client.run conn ~deck_text ~config ~progress:false ()
        with
        | Ok (tables, _) -> if tables = [] then failwith "no tables"
        | Error e -> failwith ("server bench: " ^ e.Cnt_server.Client.message)));
    Unix.gettimeofday () -. t0
  in
  (* one run of the mixed workload against a freshly started server *)
  let phase ~deck_cache_entries ~compile_cache_entries =
    if Sys.file_exists sock then Sys.remove sock;
    let server =
      Cnt_server.Server.start
        {
          (Cnt_server.Server.default_config
             ~listen:(Cnt_server.Server.Unix_path sock))
          with
          Cnt_server.Server.deck_cache_entries;
          compile_cache_entries;
        }
    in
    Fun.protect ~finally:(fun () -> Cnt_server.Server.stop server)
    @@ fun () ->
    let lat =
      Array.init requests (fun i -> one_request decks.(i mod 2))
    in
    Array.sort compare lat;
    let pct p = lat.(min (requests - 1) (int_of_float (p *. float requests))) in
    let total = Array.fold_left ( +. ) 0.0 lat in
    (total, pct 0.50, pct 0.99)
  in
  (* cold: 1-entry deck cache + alternating decks evicts every request;
     compile cache off.  warm: both caches on, daemon-sized. *)
  let cold_total, cold_p50, cold_p99 =
    phase ~deck_cache_entries:1 ~compile_cache_entries:0
  in
  let warm_total, warm_p50, warm_p99 =
    phase ~deck_cache_entries:64 ~compile_cache_entries:64
  in
  let fr = float_of_int requests in
  Printf.printf "{\n  \"benchmark\": \"server\",\n  \"requests\": %d,\n"
    requests;
  Printf.printf
    "  \"cold\": {\"total_s\": %.6g, \"requests_per_s\": %.1f, \"p50_s\": \
     %.6g, \"p99_s\": %.6g},\n"
    cold_total (fr /. cold_total) cold_p50 cold_p99;
  Printf.printf
    "  \"warm\": {\"total_s\": %.6g, \"requests_per_s\": %.1f, \"p50_s\": \
     %.6g, \"p99_s\": %.6g},\n"
    warm_total (fr /. warm_total) warm_p50 warm_p99;
  Printf.printf "  \"speedup_warm_vs_cold_p50\": %.3g,\n"
    (cold_p50 /. warm_p50);
  Printf.printf "  \"speedup_warm_vs_cold_total\": %.3g\n}\n"
    (cold_total /. warm_total)

(* ------------------------------------------------------------------ *)
(* Device-model backends (ISSUE 9).

   Per-backend cost of the registry-dispatched model tier: scalar
   bias-point evaluation, a DC inverter VTC sweep and an inverter step
   transient, each run once per registered backend by forcing the
   engine's model override.  The piecewise backend prices the paper's
   table-driven charge models through the Device_model indirection; the
   vs backend prices the closed-form virtual-source evaluation.  `main
   models-json` emits the JSON artefact (committed as
   results/BENCH_models.json). *)

let models_backends = [ "piecewise"; "vs" ]

let models_model_of backend =
  match
    Device_model.of_card ~backend ~polarity:Device_model.N_type
      ~number:float_of_string []
  with
  | Ok m -> m
  | Error msg -> failwith ("models bench: " ^ backend ^ ": " ^ msg)

let models_bias_grid =
  List.concat_map
    (fun vgs ->
      List.map (fun vds -> (vgs, vds)) [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ])
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ]

let models_group =
  Test.make_grouped ~name:"models"
    (List.map
       (fun backend ->
         let m = lazy (models_model_of backend) in
         Test.make
           ~name:(Printf.sprintf "ids_grid_%s" backend)
           (stage_unit (fun () ->
                let m = Lazy.force m in
                List.fold_left
                  (fun acc (vgs, vds) -> acc +. Device_model.ids m ~vgs ~vds)
                  0.0 models_bias_grid)))
       models_backends)

let models_dc_deck =
  "models bench VTC\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET\nMN out \
   in 0 CNFET\n.dc VIN 0 0.6 0.005\n.print v(out) id(MN)\n.end"

let models_tran_deck =
  "models bench step\nVDD vdd 0 0.6\nVIN in 0 PULSE(0 0.6 1n 0.2n 0.2n 2n \
   5n)\nMP out in vdd PCNFET l=100\nMN out in 0 CNFET l=100\nCL out 0 1f\n\
   .tran 0.05n 5n\n.print v(out)\n.end"

let models_json ~repeats =
  let run_deck backend text =
    let deck = Cnt_spice.Parser.parse text in
    let config = Cnt_spice.Engine.config ~model:backend () in
    match Cnt_spice.Engine.run_deck_result ~config deck with
    | Ok tables -> tables
    | Error e -> failwith ("models bench: " ^ Cnt_spice.Diag.error_message e)
  in
  let best f =
    let best = ref infinity and out = ref None in
    for k = 1 to 1 + repeats do
      (* first run warms the card memo and compile caches, discarded *)
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if k > 1 && dt < !best then best := dt;
      if Option.is_none !out then out := Some r
    done;
    (!best, Option.get !out)
  in
  let eval_grid m =
    List.fold_left
      (fun acc (vgs, vds) -> acc +. Device_model.ids m ~vgs ~vds)
      0.0 models_bias_grid
  in
  let backend_json backend =
    let m = models_model_of backend in
    let evals_per_round = List.length models_bias_grid in
    let rounds = 200 in
    let grid_s, _ =
      best (fun () ->
          let acc = ref 0.0 in
          for _ = 1 to rounds do
            acc := !acc +. eval_grid m
          done;
          !acc)
    in
    let dc_s, dc_tables = best (fun () -> run_deck backend models_dc_deck) in
    let tran_s, tran_tables =
      best (fun () -> run_deck backend models_tran_deck)
    in
    let stats tables =
      List.fold_left
        (fun (iters, evals) (t : Cnt_spice.Engine.table) ->
          ( iters + t.Cnt_spice.Engine.stats.Cnt_spice.Mna.newton_iterations,
            evals + t.Cnt_spice.Engine.stats.Cnt_spice.Mna.device_evals ))
        (0, 0) tables
    in
    let dc_iters, dc_evals = stats dc_tables in
    let tran_iters, tran_evals = stats tran_tables in
    Printf.sprintf
      "  \"%s\": {\"ids_eval_per_s\": %.6g, \"dc_vtc_s\": %.6g, \
       \"dc_newton_iterations\": %d, \"dc_device_evals\": %d, \"tran_s\": \
       %.6g, \"tran_newton_iterations\": %d, \"tran_device_evals\": %d}"
      backend
      (float_of_int (rounds * evals_per_round) /. grid_s)
      dc_s dc_iters dc_evals tran_s tran_iters tran_evals
  in
  let rows = List.map backend_json models_backends in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf "  \"benchmark\": \"device_model_backends\",\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"repeats\": %d,\n  \"time_metric\": \
                     \"best_wall_clock_s\",\n" repeats);
  Buffer.add_string buf
    "  \"note\": \"per-backend cost through the Device_model registry: a \
     49-point scalar ids grid, the inverter VTC DC sweep (121 points) and \
     the inverter step transient (100 steps), each forced onto the backend \
     via the engine model override\",\n";
  Buffer.add_string buf (String.concat ",\n" rows);
  Buffer.add_string buf "\n}\n";
  print_string (Buffer.contents buf)

let all_tests =
  Test.make_grouped ~name:"cntsim"
    [
      table1; table2; table3; table4; table5; fig23; fig45; fig69; fig1011;
      ablation; spice_group; scaling_group; obs_overhead_group; parallel_group;
      convergence_group; models_group;
    ]

let benchmark () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~stabilize:false ()
  in
  let raw_results = Benchmark.all cfg instances all_tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  (Analyze.merge ols instances results, raw_results)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "scaling-json" then begin
    scaling_json ();
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "obs-overhead" then begin
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    obs_overhead_json ~repeats:(if smoke then 2 else 10);
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "parallel-json" then begin
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    parallel_json ~repeats:(if smoke then 1 else 5);
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "convergence-json" then begin
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    convergence_json ~repeats:(if smoke then 2 else 10);
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "server-json" then begin
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    server_json ~requests:(if smoke then 16 else 200);
    exit 0
  end;
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "models-json" then begin
    let smoke = Array.length Sys.argv > 2 && Sys.argv.(2) = "--smoke" in
    models_json ~repeats:(if smoke then 1 else 5);
    exit 0
  end;
  List.iter
    (fun v -> Bechamel_notty.Unit.add v (Measure.unit v))
    Instance.[ monotonic_clock ];
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 120; h = 1 }
  in
  let results, _ = benchmark () in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image;
  print_newline ();
  print_endline
    "Groups map to the paper's experiments (see DESIGN.md section 3).";
  print_endline
    "Wall-clock totals for the paper's exact Table I loop counts: run `dune exec \
     bin/repro.exe -- table1`."
