(* Table-driven charge model: a PCHIP interpolant of the theoretical
   Q_S(V_SC) curve, solved with bracketed Newton on the interpolant.

   This is the extension point the paper alludes to ("more sections
   for an even higher accuracy"): pushed to its limit, a dense lookup
   table removes the fitting error entirely while still avoiding
   integration at evaluation time.  It trades the paper's closed-form
   root for a few Newton steps on a cheap C1 interpolant, providing a
   third accuracy/speed point for the ablation benchmarks. *)

open Cnt_numerics
open Cnt_physics

type t = {
  device : Device.t;
  table : Interp.t; (* Q_S vs V_SC over [lo, hi] *)
  lo : float;
  hi : float; (* above hi the charge is treated as zero *)
  c_sigma : float;
  kt_ev : float;
  current_scale : float;
}

let make ?(points = 256) ?(span = 1.2) device =
  if points < 8 then invalid_arg "Table_model.make: need at least 8 points";
  let profile = Device.charge_profile device in
  let n0 = Charge.equilibrium profile in
  let fermi = device.Device.fermi in
  (* tabulate from deep accumulation to safely past the turn-on knee *)
  let lo = fermi -. span and hi = fermi +. 0.25 in
  let table =
    Interp.of_function (fun v -> Charge.qs ~n0 profile v) lo hi points
  in
  let temp = device.Device.temp in
  {
    device;
    table;
    lo;
    hi;
    c_sigma = Device.c_sigma device;
    kt_ev = Fermi.kt_ev temp;
    current_scale =
      2.0 *. Constants.elementary_charge *. Constants.thermal_energy temp
      /. (Float.pi *. Constants.hbar);
  }

let device t = t.device

(* Charge lookup, clamped to zero above the table and linearly
   extrapolated below it (the PCHIP boundary segment handles that). *)
let qs t v = if v >= t.hi then 0.0 else Interp.eval t.table v

let qs' t v = if v >= t.hi then 0.0 else Interp.eval_derivative t.table v

let residual t ~qt ~vds v = (t.c_sigma *. v) +. qt -. qs t v -. qs t (v +. vds)

let residual' t ~vds v = t.c_sigma -. qs' t v -. qs' t (v +. vds)

let solve_vsc t ~vgs ~vds =
  let qt = Device.terminal_charge t.device ~vgs ~vds in
  let f v = residual t ~qt ~vds v in
  let lo = ref (-.(Float.abs (qt /. t.c_sigma)) -. 0.5) in
  let steps = ref 0 in
  while f !lo > 0.0 && !steps < 32 do
    incr steps;
    lo := !lo -. 0.5
  done;
  let hi = ref (Float.max 0.0 (-.qt /. t.c_sigma) +. 0.5) in
  steps := 0;
  while f !hi < 0.0 && !steps < 32 do
    incr steps;
    hi := !hi +. 0.5
  done;
  (Rootfind.newton_bracketed ~tol:1e-13 ~f ~f':(fun v -> residual' t ~vds v) !lo !hi)
    .Rootfind.root

let ids t ~vgs ~vds =
  let vsc = solve_vsc t ~vgs ~vds in
  let eta_s = (t.device.Device.fermi -. vsc) /. t.kt_ev in
  let eta_d = eta_s -. (vds /. t.kt_ev) in
  t.current_scale *. (Fermi.integral_order0 eta_s -. Fermi.integral_order0 eta_d)
