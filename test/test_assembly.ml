(* CNFET assembly and ordering tests.

   The batched gather / batch-eval / scatter pipeline is pinned two
   independent ways:

   - Frozen digests.  Each "scalar=batched" case pins the MD5
     ({!Cnt_obs.Manifest.digest_rows}) of the exact solution bits of
     that run.  They were first taken from the former scalar assembly,
     which evaluated every CNFET in place inside the stamping loop; the
     batched pipeline matched those bits.  They were rebased once when
     every circuit moved onto the one sparse LU under minimum-degree
     ordering (the small circuits here had been solved by dense LU): the
     solutions moved by at most 6.7e-16 V and the AC phasors not at all.
     The four sweep digests were rebased once more when a DC sweep
     became one warm-started continuation: point 8 no longer restarts
     cold, and the solutions moved by at most 1.1e-16 V.  The dc sweep,
     transient, both sweep-table and the mixed digests were rebased
     once more when the refill began to bypass CNFET rows whose bias
     had not moved (docs/ASSEMBLY.md, "Bypass"): a bypassed row stamps
     its last linearisation.  The solutions moved by at most 8.8e-18 V
     on the dc sweep, 2.9e-15 V on the transient, 4.4e-18 V and
     1.5e-15 V on the piecewise and vs tables (their id() columns by
     4.4e-22 A and 4.9e-21 A) and 2.4e-16 V on the mixed sweep; the op
     and AC digests did not move.  A digest change means the pipeline
     changed its floating-point program.  The bits include libm's exp/log1p
     results: on a platform whose libm rounds differently these pins
     move while the KCL checks below still hold.
   - KCL.  At every solved DC point, each node's net current is rebuilt
     here from the circuit's elements alone ([Device_model.ids] at the
     solved terminal voltages, Ohm's law, gmin * v and the solved
     source branch currents) and must vanish.

   Alongside: the supporting bitwise pins (plan replanning,
   allocation-free shift) and the minimum-degree ordering properties. *)

open Cnt_numerics
open Cnt_spice

let bits = Int64.bits_of_float
let digest = Cnt_obs.Manifest.digest_rows

let check_digest name expected rows =
  Alcotest.(check string) (name ^ ": solution-bits MD5") expected (digest rows)

(* One fitted model pair shared by every circuit in this file. *)
let fam = lazy (Stdcells.family ~length:100e-9 ())

let inverter_circuit ?(vin = 0.27) () =
  let fam = Lazy.force fam in
  Stdcells.bench fam
    ~stimuli:[ Circuit.vdc "vin" "in" "0" vin ]
    ~cells:(Stdcells.inverter fam ~prefix:"x" ~input:"in" ~output:"out" ~vdd_node:"vdd")

let ring_circuit ~stages =
  let fam = Lazy.force fam in
  let cells, _ = Stdcells.ring_oscillator fam ~prefix:"r" ~stages ~vdd_node:"vdd" in
  Stdcells.bench fam ~stimuli:[] ~cells

let ac_circuit () =
  let fam = Lazy.force fam in
  Circuit.create
    [
      Circuit.vdc "vdd" "vdd" "0" 0.6;
      Circuit.vsource ~ac:1.0 "vin" "g" "0" (Waveform.dc 0.45);
      Circuit.resistor "rl" "vdd" "d" 50e3;
      Circuit.cnfet "m1" ~drain:"d" ~gate:"g" ~source:"0" fam.Stdcells.n_model;
    ]

(* The inverter VTC deck on one backend (both devices declare it). *)
let sweep_deck backend =
  Parser.parse
    (Printf.sprintf
       "t\nVDD vdd 0 0.6\nVIN in 0 0\nMP out in vdd PCNFET model=%s\nMN out \
        in 0 CNFET model=%s\n.dc VIN 0 0.6 0.05\n.print v(out) id(MN)\n.end"
       backend backend)

let sweep_rows (r : Dc.sweep_result) =
  Array.append [| r.Dc.sweep_values |]
    (Array.map (fun (p : Dc.op_result) -> p.Dc.solution) r.Dc.points)

let tran_rows (r : Transient.result) =
  Array.append [| r.Transient.times |] r.Transient.solutions

(* ------------------------------------------------------------------ *)
(* Frozen scalar-assembly digests                                      *)
(* ------------------------------------------------------------------ *)

let test_op_equivalence () =
  check_digest "op" "5fef74f6224be968a58a9650f8176162"
    [| (Dc.operating_point (inverter_circuit ())).Dc.solution |]

let test_dc_sweep_equivalence () =
  check_digest "sweep" "fae37a5cec97291e3c63354d23de1e36"
    (sweep_rows
       (Dc.sweep (inverter_circuit ()) ~source:"vin" ~start:0.0 ~stop:0.6
          ~step:0.05))

let test_transient_equivalence () =
  check_digest "transient" "f4a82e6c6a09e914967fbf205ed8e16b"
    (tran_rows
       (Transient.run (ring_circuit ~stages:5) ~tstep:1e-12 ~tstop:2e-11))

let test_ac_equivalence () =
  let r = Ac.run (ac_circuit ()) ~freqs:[| 1e3; 1e6; 1e9 |] in
  check_digest "ac op" "257ba0f4a0a77b1ab40d35f7395ac623"
    [| r.Ac.op.Dc.solution |];
  check_digest "ac solutions" "4272d75a07d601c0210fed0ce2845be8"
    (Array.map
       (fun row ->
         Array.concat
           (Array.to_list
              (Array.map (fun (z : Complex.t) -> [| z.re; z.im |]) row)))
       r.Ac.solutions)

(* The VTC table through the engine on each backend.  Naming the
   deck's own backend as the run override is a physical no-op that
   shields the pin from an ambient CNT_MODEL. *)
let test_sweep_table_equivalence (backend, expected) () =
  match
    Engine.run_deck_result
      ~config:(Engine.config ~model:backend ())
      (sweep_deck backend)
  with
  | Ok [ t ] ->
      Alcotest.(check (array string))
        "columns" [| "vin"; "v(out)"; "id(mn)" |] t.Engine.columns;
      check_digest (backend ^ " sweep table") expected t.Engine.rows
  | Ok _ -> Alcotest.fail "expected one table"
  | Error e -> Alcotest.failf "engine error: %s" (Diag.error_message e)

(* ------------------------------------------------------------------ *)
(* Kirchhoff's current law, rebuilt from the elements                  *)
(* ------------------------------------------------------------------ *)

(* Bound on any node's net current, in amperes: far below the gmin
   current of a node at 0.6 V (6e-13 A) and the microampere device
   currents.  The worst residual measured over these cases is 2.1e-20 A
   (vs backend, V_IN = 0.05 V). *)
let kcl_bound = 1e-15

(* Largest |net current leaving a node| at DC solution [x], with the
   default gmin of 1e-12 S from every node to ground. *)
let kcl_worst compiled x =
  let r = Array.init (Mna.node_count compiled) (fun k -> 1e-12 *. x.(k)) in
  let v = Mna.voltage compiled x in
  let flows a b i =
    (* [i] leaves node [a] and enters node [b] *)
    let add node i =
      let k = Mna.node_id compiled node in
      if k >= 0 then r.(k) <- r.(k) +. i
    in
    add a i;
    add b (-.i)
  in
  List.iter
    (function
      | Circuit.Resistor { n1; n2; ohms; _ } ->
          flows n1 n2 ((v n1 -. v n2) /. ohms)
      | Circuit.Vsource { name; npos; nneg; _ } ->
          flows npos nneg (Mna.vsource_current compiled x name)
      | Circuit.Cnfet { drain; gate; source; params; _ } ->
          flows drain source
            (Cnt_core.Device_model.ids params.Circuit.model
               ~vgs:(v gate -. v source) ~vds:(v drain -. v source))
      | Circuit.Capacitor _ -> () (* open at DC *)
      | Circuit.Inductor _ | Circuit.Isource _ ->
          Alcotest.fail "kcl_worst: element kind not modelled")
    (Circuit.elements (Mna.circuit compiled));
  Array.fold_left (fun acc i -> Float.max acc (Float.abs i)) 0.0 r

let check_kcl name compiled x =
  let worst = kcl_worst compiled x in
  if not (worst <= kcl_bound) then
    Alcotest.failf "%s: KCL residual %g A exceeds %g A" name worst kcl_bound

let test_kcl_sweep backend () =
  let r =
    Dc.sweep (sweep_deck backend).Parser.circuit ~source:"vin" ~start:0.0
      ~stop:0.6 ~step:0.05
  in
  Array.iteri
    (fun i (p : Dc.op_result) ->
      check_kcl
        (Printf.sprintf "%s vin=%g" backend r.Dc.sweep_values.(i))
        r.Dc.compiled p.Dc.solution)
    r.Dc.points

let test_kcl_ac_op () =
  let r = Ac.run (ac_circuit ()) ~freqs:[| 1e6 |] in
  check_kcl "ac operating point" r.Ac.op.Dc.compiled r.Ac.op.Dc.solution

(* ------------------------------------------------------------------ *)
(* Plan replanning and shift_into bitwise pins                         *)
(* ------------------------------------------------------------------ *)

let test_replan_matches_plan () =
  let m = (Lazy.force fam).Stdcells.n_model in
  let s = Cnt_core.Cnt_model.solver m in
  let reused = Cnt_core.Scv_solver.plan s ~vds:0.123 in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let vds = Random.State.float rng 0.8 -. 0.1 in
    let qt = -.Random.State.float rng 1e-9 in
    Cnt_core.Scv_solver.replan reused ~vds;
    let fresh = Cnt_core.Scv_solver.plan s ~vds in
    let a = Cnt_core.Scv_solver.solve_plan reused ~qt in
    let b = Cnt_core.Scv_solver.solve_plan fresh ~qt in
    let c = Cnt_core.Scv_solver.solve s ~qt ~vds in
    if not (Int64.equal (bits a) (bits b)) then
      Alcotest.failf "replan vs fresh plan differ: %h vs %h" a b;
    if not (Int64.equal (bits a) (bits c)) then
      Alcotest.failf "plan vs scalar solve differ: %h vs %h" a c;
    (* replanning at the current vds must be a warm no-op with the same
       bitwise results *)
    Cnt_core.Scv_solver.replan reused ~vds;
    let a' = Cnt_core.Scv_solver.solve_plan reused ~qt in
    if not (Int64.equal (bits a) (bits a')) then
      Alcotest.failf "same-vds replan changed the solve: %h vs %h" a a'
  done

let test_shift_into_matches_shift () =
  let rng = Random.State.make [| 7 |] in
  let acc = Array.make 8 0.0 and scr = Array.make 8 0.0 in
  for _ = 1 to 500 do
    let n = 1 + Random.State.int rng 4 in
    let p =
      Array.init n (fun _ ->
          match Random.State.int rng 5 with
          | 0 -> 0.0
          | _ -> Random.State.float rng 2.0 -. 1.0)
    in
    let a = Random.State.float rng 2.0 -. 1.0 in
    let expected = Polynomial.shift p a in
    let len = Polynomial.shift_into p a acc scr in
    Alcotest.(check int) "coefficient count" (Array.length expected) len;
    for i = 0 to len - 1 do
      if not (Int64.equal (bits expected.(i)) (bits acc.(i))) then
        Alcotest.failf "shift_into coefficient %d differs: %h vs %h" i
          expected.(i) acc.(i)
    done
  done

(* ------------------------------------------------------------------ *)
(* Allocation pins                                                     *)
(* ------------------------------------------------------------------ *)

(* Minor-heap words allocated by [f] on this domain. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let vec n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

let card_model backend polarity attrs =
  match
    Cnt_core.Device_model.of_card ~backend ~polarity ~number:float_of_string
      attrs
  with
  | Ok m -> m
  | Error e -> Alcotest.failf "model card: %s" e

(* Every backend and piece count, both polarities. *)
let kernel_models =
  let open Cnt_core.Device_model in
  [
    ("piecewise model 1 n", card_model "piecewise" N_type [ ("model", "1") ]);
    ("piecewise model 1 p", card_model "piecewise" P_type [ ("model", "1") ]);
    ("piecewise model 2 n", card_model "piecewise" N_type [ ("model", "2") ]);
    ("piecewise model 2 p", card_model "piecewise" P_type [ ("model", "2") ]);
    ("vs n", card_model "vs" N_type []);
    ("vs p", card_model "vs" P_type []);
  ]

(* A table kernel over [rows] copies of one model, with V_DS moving on
   every evaluation of every row (which defeats the piecewise plans'
   same-bias memo), allocates less than a word per evaluation: the
   per-call telemetry tick is all that is left.  The per-device stencil
   closures this replaced allocated ~112 words per evaluation. *)
let test_range_kernels_allocate_nothing () =
  let rows = 32 and calls = 50 in
  List.iter
    (fun (name, m) ->
      let kernel = Cnt_core.Device_model.kernel (Array.make rows m) in
      let vgs = vec rows and vds = vec rows in
      let i0 = vec rows and gm = vec rows and gds = vec rows in
      let skip = Bytes.make rows '\000' in
      let eval () =
        Cnt_core.Device_model.eval kernel ~fault_i0:false ~skip ~vgs ~vds ~i0
          ~gm ~gds
      in
      let words = ref 0.0 in
      for c = 0 to calls do
        for k = 0 to rows - 1 do
          let x = float_of_int ((c * rows) + k) in
          Bigarray.Array1.set vgs k (0.6 *. Float.abs (sin x));
          Bigarray.Array1.set vds k ((0.65 *. Float.abs (cos (1.7 *. x))) -. 0.05)
        done;
        (* the first call warms the plans up and is not counted *)
        let w = minor_words eval in
        if c > 0 then words := !words +. w
      done;
      let per_eval = !words /. float_of_int (calls * rows) in
      if per_eval >= 0.5 then
        Alcotest.failf "%s: %.2f minor words per evaluation (bound 0.5)" name
          per_eval)
    kernel_models

(* Words per Newton iteration, taken as the difference of a 40- and a
   10-iteration run so the per-call setup cancels; a negative tolerance
   keeps Newton from converging, so both runs do every iteration. *)
let newton_words_per_iteration compiled =
  let run k =
    let x0 = Array.make (Mna.size compiled) 0.0 in
    minor_words (fun () ->
        match
          Mna.newton_result ~tol:(-1.0) ~max_iter:k compiled
            ~eval_wave:(fun _ w -> Waveform.dc_value w)
            ~cap:Mna.Open_circuit x0
        with
        | Ok _ -> Alcotest.fail "newton converged with a negative tolerance"
        | Error r -> Alcotest.(check int) "iterations run" k r.Diag.iterations)
  in
  ignore (run 10);
  (run 40 -. run 10) /. 30.0

(* Going from 10 CNFETs (5 stages, 7 unknowns) to 102 (51 stages, 53
   unknowns) may add only the solver's fresh solution vector, one word
   per extra unknown, bounded here at 2.  The CNFETs add nothing: the
   per-device kernels, the scatter and the Newton update allocate no
   words.  With stencil closures and a closure-driven scatter the
   51-stage ring allocated 16 882 words per iteration against 1 751 for
   the 5-stage ring. *)
let test_newton_iteration_words_flat () =
  let small = Mna.compile (ring_circuit ~stages:5)
  and large = Mna.compile (ring_circuit ~stages:51) in
  let w_small = newton_words_per_iteration small
  and w_large = newton_words_per_iteration large in
  let extra_unknowns = Mna.size large - Mna.size small in
  let bound = 2.0 *. float_of_int extra_unknowns in
  if w_large -. w_small > bound then
    Alcotest.failf
      "words per Newton iteration: %.1f at 51 stages vs %.1f at 5 stages \
       (growth bound %.0f for %d extra unknowns)"
      w_large w_small bound extra_unknowns

(* One 7 x 61 output family through [eval_batch]: the rows and one
   solver plan, no per-point words.  The Bigarray grid and a plan per
   drain column cost ~40 000 words per family before. *)
let test_eval_batch_family_words () =
  let m = (Lazy.force fam).Stdcells.n_model in
  let vgs = Array.init 7 (fun i -> 0.1 *. float_of_int i)
  and vds = Array.init 61 (fun j -> 0.01 *. float_of_int j) in
  ignore (Cnt_core.Cnt_model.eval_batch m ~vgs ~vds);
  let words =
    minor_words (fun () -> ignore (Cnt_core.Cnt_model.eval_batch m ~vgs ~vds))
  in
  if words > 2000.0 then
    Alcotest.failf "eval_batch: %.0f minor words per 7 x 61 family (bound 2000)"
      words

(* ------------------------------------------------------------------ *)
(* Mixed backends                                                      *)
(* ------------------------------------------------------------------ *)

(* An inverter chain whose netlist interleaves the virtual-source
   backend with piecewise Model 1 and Model 2, n- and p-type: the
   device table's runs of same-backend rows are 1, 2, 1, 2 and 2 long. *)
let mixed_deck () =
  Parser.parse
    "mixed backends\nVDD vdd 0 0.6\nVIN in 0 0.2\n\
     MP1 a in vdd PCNFET model=vs\nMN1 a in 0 CNFET model=1\n\
     MP2 b a vdd PCNFET model=2\nMN2 b a 0 CNFET model=vs\n\
     MP3 c b vdd PCNFET model=1\nMN3 c b 0 CNFET model=2\n\
     MP4 d c vdd PCNFET model=vs\nMN4 d c 0 CNFET model=vs\n.end"

let mixed_sweep () =
  Dc.sweep (mixed_deck ()).Parser.circuit ~source:"vin" ~start:0.0 ~stop:0.6
    ~step:0.05

(* The solution bits of the mixed sweep, frozen from the per-device
   stencil-closure assembly and rebased for the bypass (see the file
   header); KCL holds at every point. *)
let test_mixed_sweep () =
  let r = mixed_sweep () in
  check_digest "mixed sweep" "6a6858fab37dee24e1980230d0b5cb98" (sweep_rows r);
  Array.iteri
    (fun i (p : Dc.op_result) ->
      check_kcl
        (Printf.sprintf "mixed vin=%g" r.Dc.sweep_values.(i))
        r.Dc.compiled p.Dc.solution)
    r.Dc.points

(* The table kernel over the mixed circuit's CNFETs, in netlist order,
   at every solved sweep point: each row's (i0, gm, gds) equals that
   device's scalar [small_signal], bitwise. *)
let test_mixed_table_matches_scalar () =
  let r = mixed_sweep () in
  let compiled = r.Dc.compiled in
  let devices =
    List.filter_map
      (function
        | Circuit.Cnfet { drain; gate; source; params; _ } ->
            Some (drain, gate, source, params.Circuit.model)
        | _ -> None)
      (Circuit.elements (Mna.circuit compiled))
    |> Array.of_list
  in
  let n = Array.length devices in
  let kernel =
    Cnt_core.Device_model.kernel (Array.map (fun (_, _, _, m) -> m) devices)
  in
  let vgs = vec n and vds = vec n and i0 = vec n and gm = vec n and gds = vec n in
  let skip = Bytes.make n '\000' in
  Array.iter
    (fun (p : Dc.op_result) ->
      let v = Mna.voltage compiled p.Dc.solution in
      Array.iteri
        (fun k (d, g, s, _) ->
          Bigarray.Array1.set vgs k (v g -. v s);
          Bigarray.Array1.set vds k (v d -. v s))
        devices;
      Cnt_core.Device_model.eval kernel ~fault_i0:false ~skip ~vgs ~vds ~i0 ~gm
        ~gds;
      Array.iteri
        (fun k (_, _, _, m) ->
          let vg = Bigarray.Array1.get vgs k and vd = Bigarray.Array1.get vds k in
          let e0, eg, ed = Cnt_core.Device_model.small_signal m ~vgs:vg ~vds:vd in
          let check what expected got =
            if not (Int64.equal (bits expected) (bits got)) then
              Alcotest.failf "row %d (%s) %s: table %h vs scalar %h" k
                (Cnt_core.Device_model.backend m) what got expected
          in
          check "i0" e0 (Bigarray.Array1.get i0 k);
          check "gm" eg (Bigarray.Array1.get gm k);
          check "gds" ed (Bigarray.Array1.get gds k))
        devices)
    r.Dc.points

(* ------------------------------------------------------------------ *)
(* Bias bypass                                                         *)
(* ------------------------------------------------------------------ *)

(* The Newton update tolerance the refills below run at.  Every node
   voltage of these circuits is at most 1 V, so it is also the bypass
   bound in volts. *)
let tol = 1e-9

let check_same_bits what expected got =
  Array.iteri
    (fun i e ->
      if not (Int64.equal (bits e) (bits got.(i))) then
        Alcotest.failf "%s [%d]: %h, previously %h" what i got.(i) e)
    expected

let check_counts what c ~evals ~bypassed =
  let st = Mna.stats c in
  Alcotest.(check int) (what ^ ": device evals") evals st.Mna.device_evals;
  Alcotest.(check int) (what ^ ": bypassed") bypassed st.Mna.device_bypassed

(* The AC bench's one CNFET (drain d, gate g, source ground) at its
   operating point.  A drain move within the bound keeps the row's
   cells and leaves every stamp of the system as it was, bit for bit
   (the rest of the circuit is linear); a larger move evaluates the row
   at the new bias. *)
let test_bypass_within_bound () =
  let circuit = ac_circuit () in
  let x = (Dc.operating_point circuit).Dc.solution in
  let c = Mna.compile circuit in
  let d = Mna.node_id c "d" in
  let at dv =
    let x' = Array.copy x in
    x'.(d) <- x'.(d) +. dv;
    x'
  in
  Mna.refill_dc ~tol c x;
  check_counts "first refill" c ~evals:1 ~bypassed:0;
  let row = Mna.cnfet_row c 0 and system = Mna.system c in
  Mna.refill_dc ~tol c (at (0.5 *. tol));
  check_counts "drain moved by tol/2" c ~evals:2 ~bypassed:1;
  check_same_bits "bypassed row" row (Mna.cnfet_row c 0);
  check_same_bits "system after a bypass" system (Mna.system c);
  let x' = at (2.0 *. tol) in
  Mna.refill_dc ~tol c x';
  check_counts "drain moved by 2 tol" c ~evals:3 ~bypassed:1;
  let vgs = x'.(Mna.node_id c "g") and vds = x'.(d) in
  let m = (Lazy.force fam).Stdcells.n_model in
  let i0, gm, gds = Cnt_core.Cnt_model.small_signal m ~vgs ~vds in
  check_same_bits "re-evaluated row" [| vgs; vds; i0; gm; gds |]
    (Mna.cnfet_row c 0)

(* A fresh compile and a clone start with no evaluation to reuse: each
   evaluates every row on its first refill, even at a bias the
   template has just evaluated, while the template bypasses them all. *)
let test_bypass_fresh_workspaces () =
  let c = Mna.compile (ring_circuit ~stages:5) in
  let x = Array.make (Mna.size c) 0.0 in
  Mna.refill_dc ~tol c x;
  check_counts "fresh compile" c ~evals:10 ~bypassed:0;
  Mna.refill_dc ~tol c x;
  check_counts "template again" c ~evals:20 ~bypassed:10;
  let clone = Mna.clone c in
  Mna.refill_dc ~tol clone x;
  check_counts "clone" clone ~evals:10 ~bypassed:0;
  for k = 0 to 9 do
    check_same_bits "clone row" (Mna.cnfet_row c k) (Mna.cnfet_row clone k)
  done

(* A refill under the NaN-current fault evaluates every row, and the
   refill after it evaluates every row again instead of reusing a NaN
   current. *)
let test_bypass_after_nan_fault () =
  let c = Mna.compile (ring_circuit ~stages:5) in
  let x = Array.make (Mna.size c) 0.0 in
  Mna.refill_dc ~tol c x;
  let rows = Array.init 10 (Mna.cnfet_row c) in
  Fault.with_faults { Fault.kind = Fault.Nan_eval; until = None; point = None }
    (fun () -> Mna.refill_dc ~tol c x);
  check_counts "faulted refill" c ~evals:20 ~bypassed:0;
  Mna.refill_dc ~tol c x;
  check_counts "refill after the fault" c ~evals:30 ~bypassed:0;
  Array.iteri
    (fun k row -> check_same_bits "row after the fault" row (Mna.cnfet_row c k))
    rows

(* Backward-Euler transient steps of 1 ps on one workspace, from its
   operating point: [step ()] solves the next one and returns it. *)
let tran_stepper c =
  let caps = Mna.capacitors c in
  let x = ref (Dc.solve_compiled c) and k = ref 0 in
  fun () ->
    incr k;
    let h = 1e-12 in
    let t = h *. float_of_int !k in
    let comps =
      Array.map
        (fun (a, b, farads) ->
          let v i = if i < 0 then 0.0 else !x.(i) in
          { Mna.geq = farads /. h; ieq = -.(farads /. h *. (v a -. v b)) })
        caps
    in
    x :=
      Mna.newton ~tol c
        ~eval_wave:(fun _ w -> Waveform.eval w t)
        ~cap:(Mna.Companions comps) !x;
    !x

(* Two clones of one compiled ring, stepping in turn, each reproduce a
   solo run bit for bit, bypass counts included: the bypass state
   belongs to each workspace. *)
let test_bypass_interleaved_clones () =
  let template = Mna.compile (ring_circuit ~stages:5) in
  let steps = 40 in
  let solo = Mna.clone template in
  let solo_step = tran_stepper solo in
  let expected = Array.init steps (fun _ -> solo_step ()) in
  let a = Mna.clone template and b = Mna.clone template in
  let step_a = tran_stepper a and step_b = tran_stepper b in
  for i = 0 to steps - 1 do
    let xa = step_a () in
    let xb = step_b () in
    check_same_bits (Printf.sprintf "clone a, step %d" i) expected.(i) xa;
    check_same_bits (Printf.sprintf "clone b, step %d" i) expected.(i) xb
  done;
  let s = Mna.stats solo in
  if s.Mna.device_bypassed = 0 then Alcotest.fail "the solo run bypassed no row";
  List.iter
    (fun (name, c) ->
      check_counts name c ~evals:s.Mna.device_evals
        ~bypassed:s.Mna.device_bypassed)
    [ ("clone a", a); ("clone b", b) ]

(* ------------------------------------------------------------------ *)
(* AMD ordering properties                                             *)
(* ------------------------------------------------------------------ *)

let random_pattern rng n =
  (* connected-ish random sparse pattern with a full diagonal *)
  let entries = Hashtbl.create 64 in
  for i = 0 to n - 1 do
    Hashtbl.replace entries (i, i) ()
  done;
  let extra = 2 * n in
  for _ = 1 to extra do
    let i = Random.State.int rng n and j = Random.State.int rng n in
    Hashtbl.replace entries (i, j) ()
  done;
  Array.of_seq (Hashtbl.to_seq_keys entries)

(* Reference elimination on the symmetrised pattern graph, written
   independently of the library: [next] picks each pivot, and the
   result is the order plus its symbolic fill (the sum of neighbourhood
   sizes at elimination time). *)
let reference_eliminate ~n pattern ~next =
  let adj = Array.init n (fun _ -> Hashtbl.create 8) in
  Array.iter
    (fun (i, j) ->
      if i <> j then begin
        Hashtbl.replace adj.(i) j ();
        Hashtbl.replace adj.(j) i ()
      end)
    pattern;
  let eliminated = Array.make n false in
  let perm = Array.make n 0 and fill = ref 0 in
  for k = 0 to n - 1 do
    let v = next adj eliminated k in
    perm.(k) <- v;
    eliminated.(v) <- true;
    let nbrs = Hashtbl.fold (fun u () acc -> u :: acc) adj.(v) [] in
    fill := !fill + List.length nbrs;
    List.iter (fun u -> Hashtbl.remove adj.(u) v) nbrs;
    List.iter
      (fun u ->
        List.iter
          (fun w ->
            if u <> w then begin
              Hashtbl.replace adj.(u) w ();
              Hashtbl.replace adj.(w) u ()
            end)
          nbrs)
      nbrs
  done;
  (perm, !fill)

let amd_order ~n pattern =
  Sparse.amd_order ~n (Array.map fst pattern) (Array.map snd pattern)

(* The O(n^2) scan: lowest degree, ties to the lowest index. *)
let scan_order ~n pattern =
  reference_eliminate ~n pattern ~next:(fun adj eliminated _k ->
      let best = ref (-1) and bestd = ref max_int in
      for v = 0 to n - 1 do
        if (not eliminated.(v)) && Hashtbl.length adj.(v) < !bestd then begin
          bestd := Hashtbl.length adj.(v);
          best := v
        end
      done;
      !best)

let natural_fill ~n pattern =
  snd (reference_eliminate ~n pattern ~next:(fun _ _ k -> k))

let test_amd_permutation_valid () =
  let rng = Random.State.make [| 2024 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int rng 40 in
    let pattern = random_pattern rng n in
    let perm, _fill = amd_order ~n pattern in
    Alcotest.(check int) "perm length" n (Array.length perm);
    let seen = Array.make n false in
    Array.iter
      (fun p ->
        if p < 0 || p >= n then Alcotest.failf "perm entry %d out of range" p;
        if seen.(p) then Alcotest.failf "perm entry %d duplicated" p;
        seen.(p) <- true)
      perm
  done

let test_amd_fill_no_worse () =
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 50 do
    let n = 2 + Random.State.int rng 40 in
    let pattern = random_pattern rng n in
    let _, amd_fill = amd_order ~n pattern in
    let nat_fill = natural_fill ~n pattern in
    if amd_fill > nat_fill then
      Alcotest.failf "amd fill %d exceeds natural fill %d (n=%d)" amd_fill
        nat_fill n
  done

(* The heap picks exactly the pivots the scan picks: same permutation,
   same fill, over patterns from empty to dense, with isolated
   vertices and asymmetric entries. *)
let test_amd_matches_scan () =
  let rng = Random.State.make [| 31 |] in
  for trial = 1 to 1200 do
    let n = 1 + Random.State.int rng 60 in
    let entries = Random.State.int rng (4 * n * (1 + (trial mod 3))) in
    let pattern =
      Array.init entries (fun _ ->
          (Random.State.int rng n, Random.State.int rng n))
    in
    let perm, fill = amd_order ~n pattern in
    let ref_perm, ref_fill = scan_order ~n pattern in
    if perm <> ref_perm || fill <> ref_fill then
      Alcotest.failf "trial %d (n=%d): heap order differs from the scan" trial n
  done

let () =
  Alcotest.run "cnt_assembly"
    [
      ( "equivalence",
        [
          Alcotest.test_case "op scalar=batched" `Quick test_op_equivalence;
          Alcotest.test_case "dc sweep scalar=batched" `Quick
            test_dc_sweep_equivalence;
          Alcotest.test_case "transient scalar=batched" `Quick
            test_transient_equivalence;
          Alcotest.test_case "ac scalar=batched" `Quick test_ac_equivalence;
          Alcotest.test_case "sweep table scalar=batched (piecewise)" `Quick
            (test_sweep_table_equivalence
               ("piecewise", "b321189d4f7d8e10dd87b4d8414d5b44"));
          Alcotest.test_case "sweep table scalar=batched (vs)" `Quick
            (test_sweep_table_equivalence
               ("vs", "81e063fa7852875435fd4afee93c2e3c"));
        ] );
      ( "kcl",
        [
          Alcotest.test_case "inverter sweep (piecewise)" `Quick
            (test_kcl_sweep "piecewise");
          Alcotest.test_case "inverter sweep (vs)" `Quick (test_kcl_sweep "vs");
          Alcotest.test_case "ac operating point" `Quick test_kcl_ac_op;
        ] );
      ( "plans",
        [
          Alcotest.test_case "replan bitwise-equals fresh plan" `Quick
            test_replan_matches_plan;
          Alcotest.test_case "shift_into bitwise-equals shift" `Quick
            test_shift_into_matches_shift;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "range kernels allocate nothing per evaluation"
            `Quick test_range_kernels_allocate_nothing;
          Alcotest.test_case "newton iteration words flat in the CNFET count"
            `Quick test_newton_iteration_words_flat;
          Alcotest.test_case "eval_batch words per family bounded" `Quick
            test_eval_batch_family_words;
        ] );
      ( "mixed",
        [
          Alcotest.test_case "mixed sweep digest and KCL" `Quick
            test_mixed_sweep;
          Alcotest.test_case "mixed table = per-device small_signal" `Quick
            test_mixed_table_matches_scalar;
        ] );
      ( "bypass",
        [
          Alcotest.test_case "a move within the bound keeps the row" `Quick
            test_bypass_within_bound;
          Alcotest.test_case "fresh compile and clone evaluate every row"
            `Quick test_bypass_fresh_workspaces;
          Alcotest.test_case "a refill after a NaN fault evaluates every row"
            `Quick test_bypass_after_nan_fault;
          Alcotest.test_case "interleaved clones equal a solo run" `Quick
            test_bypass_interleaved_clones;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "amd perm is a permutation" `Quick
            test_amd_permutation_valid;
          Alcotest.test_case "amd fill <= natural fill" `Quick
            test_amd_fill_no_worse;
          Alcotest.test_case "amd heap equals the O(n^2) scan" `Quick
            test_amd_matches_scan;
        ] );
    ]
