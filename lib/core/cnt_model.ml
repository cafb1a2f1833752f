(* Top-level circuit-ready CNFET model: a fitted piecewise charge
   approximation plus the closed-form self-consistent-voltage solver
   and the analytic drain-current expression (paper eq. 14).

   Construction performs the one-off numerical work (equilibrium
   density, charge-curve fit); evaluation afterwards involves no
   integration and no iteration, which is what makes the model >10^3
   faster than the reference. *)

open Cnt_numerics
open Cnt_physics
module Obs = Cnt_obs.Obs

let c_ids_evals = Obs.counter "cnt_model.ids_evals"
let c_fits = Obs.counter "cnt_model.fits"
let c_batch_evals = Obs.counter "cnt_model.batch_evals"

type polarity =
  | N_type
  | P_type

type t = {
  device : Device.t;
  polarity : polarity;
  spec : Charge_fit.spec;
  fit : Charge_fit.fit_result;
  solver : Scv_solver.t;
  kt_ev : float;
  current_scale : float; (* 2 q k T / (pi hbar), Amperes *)
  c_g : float; (* Device.c_gate / c_drain, hoisted: F/m *)
  c_d : float;
  identity : string;
}

(* Canonical identity of a fitted model: polarity, the full device
   parameter set, and the fitted boundary offsets/degrees (which also
   separate Model 1 from Model 2 and optimised from stock boundaries).
   Floats print as hex so distinct parameter sets can never collide
   through rounding.  This string keys manifests and anything else
   where two different models must never alias. *)
let identity_of ~polarity ~(device : Device.t) ~(spec : Charge_fit.spec) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (match polarity with N_type -> "pcm|n" | P_type -> "pcm|p");
  Printf.bprintf buf "|d=%h|tox=%h|kap=%h|T=%h|ef=%h|ag=%h|ad=%h|sb=%d"
    device.Device.diameter device.Device.oxide_thickness
    device.Device.dielectric device.Device.temp device.Device.fermi
    device.Device.alpha_g device.Device.alpha_d device.Device.subbands;
  Buffer.add_string buf "|off=";
  Array.iter (fun o -> Printf.bprintf buf "%h," o) spec.Charge_fit.offsets;
  Buffer.add_string buf "|deg=";
  Array.iter (fun d -> Printf.bprintf buf "%d," d) spec.Charge_fit.degrees;
  Buffer.contents buf

let make ?(polarity = N_type) ?(spec = Charge_fit.model2_spec)
    ?(optimise = false) ?theory device =
  Obs.span "cnt_model.make" @@ fun () ->
  Obs.incr c_fits;
  let profile = Device.charge_profile device in
  let spec, fit =
    if optimise then begin
      let refined, fit, _ = Charge_fit.optimise_boundaries profile spec in
      (refined, fit)
    end
    else (spec, Charge_fit.fit ?theory profile spec)
  in
  let solver =
    Scv_solver.create ~qs:fit.Charge_fit.approx ~c_sigma:(Device.c_sigma device)
  in
  let temp = device.Device.temp in
  let identity = identity_of ~polarity ~device ~spec in
  {
    device;
    polarity;
    spec;
    fit;
    solver;
    kt_ev = Fermi.kt_ev temp;
    current_scale =
      2.0 *. Constants.elementary_charge *. Constants.thermal_energy temp
      /. (Float.pi *. Constants.hbar);
    c_g = Device.c_gate device;
    c_d = Device.c_drain device;
    identity;
  }

(* The paper's Model 1 (three pieces) on a device (default: the FETToy
   reference device). *)
(* Rebuild a model from previously fitted parts (deserialisation path):
   no fitting happens; the spec is reconstructed from the approximation
   so the accessors stay meaningful. *)
let of_parts ?(polarity = N_type) ?(charge_rms = nan) ~device ~approx () =
  let bounds = Piecewise.boundaries approx in
  let fermi = device.Device.fermi in
  let pieces = Piecewise.pieces approx in
  let spec =
    Charge_fit.spec
      ~offsets:(Array.map (fun b -> b -. fermi) bounds)
      ~degrees:
        (Array.init (Array.length bounds) (fun i ->
             max 1 (Polynomial.degree pieces.(i))))
      ()
  in
  let fit =
    {
      Charge_fit.approx;
      charge_rms;
      sample_xs = [||];
      sample_ys = [||];
    }
  in
  let solver = Scv_solver.create ~qs:approx ~c_sigma:(Device.c_sigma device) in
  let temp = device.Device.temp in
  let identity = identity_of ~polarity ~device ~spec in
  {
    device;
    polarity;
    spec;
    fit;
    solver;
    kt_ev = Fermi.kt_ev temp;
    current_scale =
      2.0 *. Constants.elementary_charge *. Constants.thermal_energy temp
      /. (Float.pi *. Constants.hbar);
    c_g = Device.c_gate device;
    c_d = Device.c_drain device;
    identity;
  }

let model1 ?polarity ?optimise ?(device = Device.default) () =
  make ?polarity ~spec:Charge_fit.model1_spec ?optimise device

(* The paper's Model 2 (four pieces). *)
let model2 ?polarity ?optimise ?(device = Device.default) () =
  make ?polarity ~spec:Charge_fit.model2_spec ?optimise device

let device t = t.device
let polarity t = t.polarity
let spec t = t.spec
let identity t = t.identity
let charge_approx t = t.fit.Charge_fit.approx
let charge_rms t = t.fit.Charge_fit.charge_rms
let solver t = t.solver

(* Map terminal voltages through the device polarity: a p-type device
   is the electron-hole mirror of the n-type one. *)
let oriented t ~vgs ~vds =
  match t.polarity with N_type -> (vgs, vds) | P_type -> (-.vgs, -.vds)

(* Paper eq. 14 at a solved V_SC, on oriented voltages with the n-type
   current sign. *)
let current t ~vsc ~vds =
  let eta_s = (t.device.Device.fermi -. vsc) /. t.kt_ev in
  let eta_d = eta_s -. (vds /. t.kt_ev) in
  t.current_scale
  *. (Fermi.integral_order0 eta_s -. Fermi.integral_order0 eta_d)

(* The closed-form V_SC solve on oriented voltages. *)
let oriented_vsc t ~vgs ~vds =
  let qt = Device.terminal_charge t.device ~vgs ~vds in
  Scv_solver.solve t.solver ~qt ~vds

let solve_vsc t ~vgs ~vds =
  let vgs, vds = oriented t ~vgs ~vds in
  oriented_vsc t ~vgs ~vds

let solve_stats t ~vgs ~vds =
  let vgs, vds = oriented t ~vgs ~vds in
  let qt = Device.terminal_charge t.device ~vgs ~vds in
  Scv_solver.solve_stats t.solver ~qt ~vds

(* Drain current from a solved V_SC (paper eq. 14); sign follows the
   device polarity. *)
let ids t ~vgs ~vds =
  Obs.incr c_ids_evals;
  let vgs, vds = oriented t ~vgs ~vds in
  let i = current t ~vsc:(oriented_vsc t ~vgs ~vds) ~vds in
  match t.polarity with N_type -> i | P_type -> -.i

(* Mobile charges at a bias point (for charge-conserving transient
   stamps): total tube charge and its split between source and drain
   (C/m). *)
let charges t ~vgs ~vds =
  let vgs, vds = oriented t ~vgs ~vds in
  let vsc = oriented_vsc t ~vgs ~vds in
  let qs = Piecewise.eval (charge_approx t) vsc in
  let qd = Piecewise.eval (charge_approx t) (vsc +. vds) in
  (vsc, qs, qd)

(* -------------------------------------------------------------- *)
(* Batched kernel                                                 *)
(* -------------------------------------------------------------- *)

type grid = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

(* One drain column evaluated through a hoisted Scv_solver plan: the
   per-point program below is the same floating-point program as
   [ids] with [Scv_solver.solve] replaced by the bitwise-equal
   [solve_plan]. *)
let eval_batch t ~vgs ~vds =
  Obs.span "cnt_model.eval_batch" @@ fun () ->
  let ni = Array.length vgs and nj = Array.length vds in
  let out = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout ni nj in
  let sign = match t.polarity with N_type -> 1.0 | P_type -> -1.0 in
  for j = 0 to nj - 1 do
    let _, ovds = oriented t ~vgs:0.0 ~vds:vds.(j) in
    let plan = Scv_solver.plan t.solver ~vds:ovds in
    for i = 0 to ni - 1 do
      let ovgs, _ = oriented t ~vgs:vgs.(i) ~vds:0.0 in
      let qt = Device.terminal_charge t.device ~vgs:ovgs ~vds:ovds in
      let vsc = Scv_solver.solve_plan plan ~qt in
      Bigarray.Array2.unsafe_set out i j (sign *. current t ~vsc ~vds:ovds)
    done
  done;
  Obs.incr ~by:(ni * nj) c_ids_evals;
  Obs.incr c_batch_evals;
  out

let output_family t ~vgs_list ~vds_points =
  let vgs = Array.of_list vgs_list in
  let g = eval_batch t ~vgs ~vds:vds_points in
  List.mapi
    (fun i vg ->
      (vg, Array.init (Array.length vds_points) (fun j -> Bigarray.Array2.get g i j)))
    vgs_list

let transfer t ~vds ~vgs_points =
  let g = eval_batch t ~vgs:vgs_points ~vds:[| vds |] in
  Array.init (Array.length vgs_points) (fun i -> Bigarray.Array2.get g i 0)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The one solver plan a stencil evaluation retargets.  One workspace
   serves one domain at a time: assembly code keeps a workspace per
   device per cloned system, never sharing across concurrently-solving
   clones. *)
type stencil_ws = Scv_solver.plan

let stencil_ws t = Scv_solver.plan t.solver ~vds:0.0

(* The MNA stencil: [ids] and its closed-form [gm]/[gds] from one
   bias-point solve, written into slot [k] of three output columns.

   The solve is [ids]'s with [Scv_solver.solve] replaced by the
   bitwise-equal [solve_plan] on the workspace plan, retargeted at the
   drain bias exactly as [eval_batch] builds its plans (so the same-vds
   memo of [Scv_solver.replan] fires whenever a device's drain bias is
   unchanged).  The current below is the expression of [current].

   The conductances are implicit differentiation of eq. 7,
     F = C_Sigma V_SC + C_G V_GS + C_D V_DS - Q_S(V_SC) - Q_S(V_SC + V_DS) = 0,
   which gives dV_SC/dV_GS = -C_G / D and
   dV_SC/dV_DS = -(C_D - Q_S'(V_SC + V_DS)) / D with
   D = C_Sigma - Q_S'(V_SC) - Q_S'(V_SC + V_DS) > 0, carried through
   eq. 14 with dF_0/deta the logistic [Fermi.integral_order0'].  They
   are taken on oriented voltages: I_p(v) = -I_n(-v) makes the
   mirror's derivatives the n-type ones at the oriented bias, so p-type
   needs no sign flip.  Everything after the solve is straight-line
   float code writing into the columns: no tuple, no closure.

   [fault_i0] is the [Fault.Nan_eval] site: the bias point is evaluated
   as usual and only the current written to [i0] becomes NaN. *)
let eval_stencil t ~ws ~fault_i0 ~vgs ~vds ~i0 ~gm ~gds ~k =
  Obs.incr c_ids_evals;
  (* [oriented] without its tuple: the sign flip is the same [-.] the
     tuple form applies *)
  let flip = match t.polarity with N_type -> false | P_type -> true in
  let ovgs = if flip then -.vgs else vgs in
  let ovds = if flip then -.vds else vds in
  (* [vds] itself when unflipped: [ovds] is an unboxed local, so
     passing it here would box it once per evaluation *)
  Scv_solver.replan ws ~vds:(if flip then ovds else vds);
  let vsc = Scv_solver.solve_plan ws ~qt:((t.c_g *. ovgs) +. (t.c_d *. ovds)) in
  let kt = t.kt_ev and scale = t.current_scale in
  let eta_s = (t.device.Device.fermi -. vsc) /. kt in
  let eta_d = eta_s -. (ovds /. kt) in
  let i =
    scale *. (Fermi.integral_order0 eta_s -. Fermi.integral_order0 eta_d)
  in
  let sig_d = Fermi.integral_order0' eta_d in
  let dqd = Scv_solver.qs_slope t.solver (vsc +. ovds) in
  let d =
    Scv_solver.c_sigma t.solver -. Scv_solver.qs_slope t.solver vsc -. dqd
  in
  let a = scale *. (Fermi.integral_order0' eta_s -. sig_d) /. (kt *. d) in
  Bigarray.Array1.unsafe_set i0 k
    (if fault_i0 then Float.nan else if flip then -.i else i);
  Bigarray.Array1.unsafe_set gm k (a *. t.c_g);
  Bigarray.Array1.unsafe_set gds k
    ((a *. (t.c_d -. dqd)) +. (scale *. sig_d /. kt))

(* The scalar entry point: the stencil itself on a fresh workspace and
   one-slot columns, so scalar and batched evaluation agree bitwise by
   construction. *)
let small_signal t ~vgs ~vds =
  let col () = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 1 in
  let i0 = col () and gm = col () and gds = col () in
  eval_stencil t ~ws:(stencil_ws t) ~fault_i0:false ~vgs ~vds ~i0 ~gm ~gds
    ~k:0;
  Bigarray.Array1.(get i0 0, get gm 0, get gds 0)

let gm t ~vgs ~vds =
  let _, g, _ = small_signal t ~vgs ~vds in
  g

let gds t ~vgs ~vds =
  let _, _, g = small_signal t ~vgs ~vds in
  g

let pp fmt t =
  Format.fprintf fmt "@[<v>%s model (%s, %d pieces, charge RMS %.3f%%)@ %a@]"
    (match t.polarity with N_type -> "n-type" | P_type -> "p-type")
    t.device.Device.name
    (Piecewise.piece_count (charge_approx t))
    (100.0 *. charge_rms t)
    Device.pp t.device
