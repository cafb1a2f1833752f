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

(* The Fermi-Dirac integral of order 0 and its derivative
   ([Fermi.integral_order0] = [Special.log1p_exp] and
   [Fermi.integral_order0'] = [Special.logistic (-. eta)]) written out
   here: a float passed to or returned from a function of another
   module is boxed, because the default (dev) build compiles every
   module with [-opaque] and so inlines no call across modules.  These
   copies are inlined into the kernels below and keep their floats
   unboxed. *)
let[@inline] f0 x =
  if x > 35.0 then x +. log1p (exp (-.x))
  else if x < -35.0 then exp x
  else log1p (exp x)

let[@inline] f0' eta =
  let x = -.eta in
  if x >= 0.0 then begin
    let e = exp (-.x) in
    e /. (1.0 +. e)
  end
  else 1.0 /. (1.0 +. exp x)

(* Paper eq. 14 at a solved V_SC, on oriented voltages with the n-type
   current sign. *)
let[@inline] current t ~vsc ~vds =
  let eta_s = (t.device.Device.fermi -. vsc) /. t.kt_ev in
  let eta_d = eta_s -. (vds /. t.kt_ev) in
  t.current_scale *. (f0 eta_s -. f0 eta_d)

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
(* Batched kernels                                                *)
(* -------------------------------------------------------------- *)

(* A bias grid through one Scv_solver plan, retargeted per drain
   column: the per-point program below is the same floating-point
   program as [ids] with [Scv_solver.solve] replaced by the
   bitwise-equal plan solve, and every float reaches the plan through
   its [io] cells, so no point allocates. *)
let eval_batch t ~vgs ~vds =
  Obs.span "cnt_model.eval_batch" @@ fun () ->
  let ni = Array.length vgs and nj = Array.length vds in
  let rows = Array.make_matrix ni nj 0.0 in
  let flip = match t.polarity with N_type -> false | P_type -> true in
  let plan = Scv_solver.plan t.solver ~vds:0.0 in
  let io = Scv_solver.io plan in
  for j = 0 to nj - 1 do
    let ovds = if flip then -.vds.(j) else vds.(j) in
    Scv_solver.replan plan ~vds:ovds;
    for i = 0 to ni - 1 do
      let ovgs = if flip then -.vgs.(i) else vgs.(i) in
      io.qt <- (t.c_g *. ovgs) +. (t.c_d *. ovds);
      Scv_solver.solve_io plan;
      let c = current t ~vsc:io.vsc ~vds:ovds in
      rows.(i).(j) <- (if flip then -.c else c)
    done
  done;
  Obs.incr ~by:(ni * nj) c_ids_evals;
  Obs.incr c_batch_evals;
  rows

let output_family t ~vgs_list ~vds_points =
  let rows = eval_batch t ~vgs:(Array.of_list vgs_list) ~vds:vds_points in
  List.mapi (fun i vg -> (vg, rows.(i))) vgs_list

let transfer t ~vds ~vgs_points =
  Array.map (fun row -> row.(0)) (eval_batch t ~vgs:vgs_points ~vds:[| vds |])

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A run of device-table rows: row [j] of the run is evaluated by
   [models.(j)] on its own solver plan.  The plans are scratch owned by
   one assembly workspace: never share a range between domains
   evaluating concurrently. *)
type range = {
  models : t array;
  plans : Scv_solver.plan array;
}

let range models =
  { models; plans = Array.map (fun t -> Scv_solver.plan t.solver ~vds:0.0) models }

(* The MNA range kernel: for each row [first + j], [ids] and its
   closed-form [gm]/[gds] from one bias-point solve, read from and
   written to the table's columns.

   The solve is [ids]'s with [Scv_solver.solve] replaced by the
   bitwise-equal plan solve on the row's plan, retargeted at the row's
   drain bias (a no-op when that bias is unchanged since the last
   evaluation, which keeps the plan's memos warm).  The current is the
   expression of [current].

   The conductances are implicit differentiation of eq. 7,
     F = C_Sigma V_SC + C_G V_GS + C_D V_DS - Q_S(V_SC) - Q_S(V_SC + V_DS) = 0,
   which gives dV_SC/dV_GS = -C_G / D and
   dV_SC/dV_DS = -(C_D - Q_S'(V_SC + V_DS)) / D with
   D = C_Sigma - Q_S'(V_SC) - Q_S'(V_SC + V_DS) > 0, carried through
   eq. 14 with dF_0/deta the logistic [f0'].  They are taken on
   oriented voltages: I_p(v) = -I_n(-v) makes the mirror's derivatives
   the n-type ones at the oriented bias, so p-type needs no sign flip.

   Every float stays in this function: biases come from the table's
   Bigarray columns, cross into the solver only through the plan's
   [io] cells, and the results go straight into the output columns, so
   a row allocates nothing.  [fault_i0] is the [Fault.Nan_eval] site:
   each bias point is evaluated as usual and only the current written
   to [i0] becomes NaN. *)
let eval_range r ~first ~fault_i0 ~(vgs : vec) ~(vds : vec) ~(i0 : vec)
    ~(gm : vec) ~(gds : vec) =
  let n = Array.length r.models in
  for j = 0 to n - 1 do
    let t = r.models.(j) and plan = r.plans.(j) in
    let io = Scv_solver.io plan in
    let k = first + j in
    let flip = match t.polarity with N_type -> false | P_type -> true in
    let vg = Bigarray.Array1.get vgs k and vd = Bigarray.Array1.get vds k in
    let ovgs = if flip then -.vg else vg in
    let ovds = if flip then -.vd else vd in
    io.vds <- ovds;
    io.qt <- (t.c_g *. ovgs) +. (t.c_d *. ovds);
    Scv_solver.solve_io plan;
    Scv_solver.slopes_io plan;
    let vsc = io.vsc in
    let kt = t.kt_ev and scale = t.current_scale in
    let eta_s = (t.device.Device.fermi -. vsc) /. kt in
    let eta_d = eta_s -. (ovds /. kt) in
    let i = scale *. (f0 eta_s -. f0 eta_d) in
    let sig_d = f0' eta_d in
    let dqd = io.dqd in
    let d = Scv_solver.c_sigma t.solver -. io.dqs -. dqd in
    let a = scale *. (f0' eta_s -. sig_d) /. (kt *. d) in
    Bigarray.Array1.set i0 k
      (if fault_i0 then Float.nan else if flip then -.i else i);
    Bigarray.Array1.set gm k (a *. t.c_g);
    Bigarray.Array1.set gds k ((a *. (t.c_d -. dqd)) +. (scale *. sig_d /. kt))
  done;
  Obs.incr ~by:n c_ids_evals

(* The scalar entry point: the range kernel on a one-row range, so
   scalar and batched evaluation agree bitwise by construction. *)
let small_signal t ~vgs ~vds =
  let col v = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout 1 (fun _ -> v) in
  let i0 = col 0.0 and gm = col 0.0 and gds = col 0.0 in
  eval_range (range [| t |]) ~first:0 ~fault_i0:false ~vgs:(col vgs)
    ~vds:(col vds) ~i0 ~gm ~gds;
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
