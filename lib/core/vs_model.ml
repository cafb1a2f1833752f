(* Virtual-source ballistic CNFET compact model (Lee et al., the
   sub-10nm CNFET neighbour named in PAPERS.md).

   The drain current is the charge at the virtual source times the
   injection velocity times an empirical saturation function:

     I_DS = Q_ix0(V_GS, V_DS) * v_x0 * F_sat(V_DS)

     Q_ix0 = C_inv n phi_t ln(1 + exp((V_GS - V_T) / (n phi_t)))
     V_T   = V_T0 - delta V_DS                    (DIBL)
     F_sat = (V_DS / V_dsat) / (1 + (V_DS / V_dsat)^beta)^(1/beta)

   Reverse operation (V_DS < 0) swaps source and drain:
   I(V_GS, V_DS) = -I(V_GD, -V_DS) with V_GD = V_GS - V_DS, which keeps
   the current continuous and monotone in V_DS through the origin.
   P-type devices are the electron-hole mirror, exactly as in
   {!Cnt_model}.

   Unlike the piecewise model there is no fitting step: construction is
   closed-form from the device geometry (C_inv defaults to the coaxial
   gate capacitance, phi_t to kT/q at the device temperature). *)

open Cnt_physics
module Obs = Cnt_obs.Obs

let c_ids_evals = Obs.counter "vs_model.ids_evals"

type polarity = Cnt_model.polarity =
  | N_type
  | P_type

type params = {
  vt0 : float;  (* threshold voltage at V_DS = 0, V *)
  dibl : float;  (* drain-induced barrier lowering, V/V *)
  n_ss : float;  (* subthreshold ideality factor *)
  vxo : float;  (* virtual-source injection velocity, m/s *)
  beta : float;  (* saturation transition exponent *)
  vdsat : float;  (* saturation voltage scale, V *)
  cinv : float;  (* gate-to-channel inversion capacitance, F/m *)
}

type t = {
  device : Device.t;
  polarity : polarity;
  p : params;
  phi_t : float;  (* thermal voltage kT/q at the device temperature, V *)
  identity : string;
}

let identity_of ~polarity ~(device : Device.t) ~(p : params) =
  Printf.sprintf "vs|%s|T=%h|vt0=%h|dibl=%h|n=%h|vxo=%h|beta=%h|vdsat=%h|cinv=%h"
    (match polarity with N_type -> "n" | P_type -> "p")
    device.Device.temp p.vt0 p.dibl p.n_ss p.vxo p.beta p.vdsat p.cinv

let make ?(polarity = N_type) ?(vt0 = 0.3) ?(dibl = 0.05) ?(n_ss = 1.1)
    ?(vxo = 4.0e5) ?(beta = 1.8) ?vdsat ?cinv device =
  let phi_t = Fermi.kt_ev device.Device.temp in
  let vdsat = match vdsat with Some v -> v | None -> 3.0 *. n_ss *. phi_t in
  let cinv = match cinv with Some c -> c | None -> Device.c_gate device in
  let check name v =
    if not (Float.is_finite v && v > 0.0) then
      invalid_arg (Printf.sprintf "Vs_model.make: %s must be positive" name)
  in
  check "n" n_ss;
  check "vxo" vxo;
  check "beta" beta;
  check "vdsat" vdsat;
  check "cinv" cinv;
  let p = { vt0; dibl; n_ss; vxo; beta; vdsat; cinv } in
  { device; polarity; p; phi_t; identity = identity_of ~polarity ~device ~p }

let device t = t.device
let polarity t = t.polarity
let params t = t.p
let identity t = t.identity

(* Numerically safe ln(1 + exp x): for large x the exp overflows but
   the limit is x itself. *)
let[@inline] softplus x = if x > 40.0 then x else Float.log1p (Float.exp x)

(* [Fermi.integral_order0'] ([Special.logistic (-. u)]) written out so
   the range kernel's floats stay unboxed: a call into another module
   is never inlined under the default (dev) build's [-opaque], and each
   float argument or result of such a call is boxed. *)
let[@inline] f0' u =
  let x = -.u in
  if x >= 0.0 then begin
    let e = exp (-.x) in
    e /. (1.0 +. e)
  end
  else 1.0 /. (1.0 +. exp x)

(* Forward current for oriented, non-negative V_DS, together with the
   virtual-source charge (C/m). *)
let forward t ~vgs ~vds =
  let vt = t.p.vt0 -. (t.p.dibl *. vds) in
  let nphi = t.p.n_ss *. t.phi_t in
  let qix0 = t.p.cinv *. nphi *. softplus ((vgs -. vt) /. nphi) in
  let x = vds /. t.p.vdsat in
  let fsat = x /. (((1.0 +. (x ** t.p.beta)) ** (1.0 /. t.p.beta))) in
  (qix0, qix0 *. t.p.vxo *. fsat)

(* (Q_ix0, I_DS) on oriented voltages with the n-type sign; the S/D
   swap handles the reverse region. *)
let solve_point t ~vgs ~vds =
  if vds >= 0.0 then forward t ~vgs ~vds
  else begin
    let q, i = forward t ~vgs:(vgs -. vds) ~vds:(-.vds) in
    (q, -.i)
  end

let oriented t ~vgs ~vds =
  match t.polarity with N_type -> (vgs, vds) | P_type -> (-.vgs, -.vds)

let ids t ~vgs ~vds =
  Obs.incr c_ids_evals;
  let ovgs, ovds = oriented t ~vgs ~vds in
  let _, i = solve_point t ~vgs:ovgs ~vds:ovds in
  match t.polarity with N_type -> i | P_type -> -.i

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The MNA range kernel: for each row [first + j], [ids] and its
   closed-form [gm]/[gds] at the row's bias point, read from and
   written to the table's columns.  The forward quantities are the
   expressions of [forward]; the partial derivatives of the forward
   current I_f = Q_ix0 v_x0 F_sat go through the softplus (whose clamp
   makes its slope exactly 1 above 40), through DIBL
   (dV_T/dV_DS = -delta, so dQ_ix0/dV_DS = delta dQ_ix0/dV_GS) and
   through dF_sat/dx = (1 + x^beta)^(-1/beta - 1).  The S/D swap
   I(V_GS, V_DS) = -I_f(V_GS - V_DS, -V_DS) turns them into
   gm = -dI_f/dV_GS and gds = dI_f/dV_GS + dI_f/dV_DS at the swapped
   point.  Derivatives are taken on oriented voltages — the mirror's
   derivatives at the oriented bias are the n-type ones — so p-type
   needs no sign flip.  There is no per-bias plan to hoist, so the
   range is just its models.  A row allocates nothing.  [fault_i0]
   makes only the currents written to [i0] NaN.  A row whose [skip]
   byte is set is left alone: its cells keep the previous
   evaluation. *)
let eval_range models ~first ~fault_i0 ~skip ~(vgs : vec) ~(vds : vec)
    ~(i0 : vec) ~(gm : vec) ~(gds : vec) =
  let n = Array.length models in
  let evaluated = ref 0 in
  for j = 0 to n - 1 do
    let k = first + j in
    if Bytes.get skip k = '\000' then begin
      incr evaluated;
      let t = models.(j) in
      let flip = match t.polarity with N_type -> false | P_type -> true in
      let vg = Bigarray.Array1.get vgs k and vd = Bigarray.Array1.get vds k in
      let ovgs = if flip then -.vg else vg in
      let ovds = if flip then -.vd else vd in
      let rev = ovds < 0.0 in
      let fvgs = if rev then ovgs -. ovds else ovgs in
      let fvds = if rev then -.ovds else ovds in
      let p = t.p in
      let vt = p.vt0 -. (p.dibl *. fvds) in
      let nphi = p.n_ss *. t.phi_t in
      let u = (fvgs -. vt) /. nphi in
      let qix0 = p.cinv *. nphi *. softplus u in
      let x = fvds /. p.vdsat in
      let s = 1.0 +. (x ** p.beta) in
      let fsat = x /. (s ** (1.0 /. p.beta)) in
      let i_f = qix0 *. p.vxo *. fsat in
      let i = if rev then -.i_f else i_f in
      let dq = p.cinv *. (if u > 40.0 then 1.0 else f0' u) in
      let g_f = p.vxo *. fsat *. dq in
      let d_f =
        (g_f *. p.dibl)
        +. (p.vxo *. qix0 *. (s ** ((-1.0 /. p.beta) -. 1.0)) /. p.vdsat)
      in
      Bigarray.Array1.set i0 k
        (if fault_i0 then Float.nan else if flip then -.i else i);
      Bigarray.Array1.set gm k (if rev then -.g_f else g_f);
      Bigarray.Array1.set gds k (if rev then g_f +. d_f else d_f)
    end
  done;
  Obs.incr ~by:!evaluated c_ids_evals

(* The scalar entry point: the range kernel on a one-row range, so
   scalar and batched evaluation agree bitwise by construction. *)
let small_signal t ~vgs ~vds =
  let col v = Bigarray.Array1.init Bigarray.float64 Bigarray.c_layout 1 (fun _ -> v) in
  let i0 = col 0.0 and gm = col 0.0 and gds = col 0.0 in
  eval_range [| t |] ~first:0 ~fault_i0:false ~skip:(Bytes.make 1 '\000')
    ~vgs:(col vgs) ~vds:(col vds) ~i0 ~gm ~gds;
  Bigarray.Array1.(get i0 0, get gm 0, get gds 0)

let gm t ~vgs ~vds =
  let _, g, _ = small_signal t ~vgs ~vds in
  g

let gds t ~vgs ~vds =
  let _, _, g = small_signal t ~vgs ~vds in
  g
