(* Boundary optimisation against the quantity that actually matters:
   the drain-current error versus the reference model.

   Charge_fit.optimise_boundaries minimises the charge-curve RMS (the
   paper's stated objective).  Because the current depends on the
   charge only through the self-consistent feedback, the charge
   optimum is not exactly the current optimum; this module closes the
   loop by scoring each candidate boundary set on a small bias grid
   against a precomputed reference surface. *)

open Cnt_numerics
open Cnt_physics

type bias_grid = {
  vgs : float array;
  vds : float array;
}

let default_grid =
  { vgs = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 |]; vds = Grid.linspace 0.0 0.6 13 }

(* Reference current surface, row per V_GS. *)
let reference_surface ?(grid = default_grid) fettoy =
  Array.map
    (fun vgs -> Array.map (fun vds -> Fettoy.ids fettoy ~vgs ~vds) grid.vds)
    grid.vgs

(* Mean (over gate voltages) relative RMS current error of a model
   against a precomputed reference surface. *)
let current_error ?(grid = default_grid) ~reference model =
  let rows = Cnt_model.eval_batch model ~vgs:grid.vgs ~vds:grid.vds in
  let total = ref 0.0 in
  Array.iteri
    (fun i approx ->
      total := !total +. Stats.relative_rms_error reference.(i) approx)
    rows;
  !total /. float_of_int (Array.length grid.vgs)

(* Optimise the boundary offsets of [spec] for [device], minimising the
   mean relative RMS drain-current error against the reference model on
   [grid].  The expensive pieces (the theory charge curve and the
   reference surface) are computed once; each Nelder-Mead step costs
   one linear least-squares fit plus a grid of closed-form current
   evaluations. *)
let optimise_for_current ?(grid = default_grid) ?(min_gap = 0.02)
    ?(max_iter = 300) ?polarity device spec =
  let fettoy = Fettoy.create device in
  let reference = reference_surface ~grid fettoy in
  let profile = Device.charge_profile device in
  let k = Array.length spec.Charge_fit.offsets in
  let fermi = profile.Charge.fermi in
  let theory =
    Charge_fit.sample_theory ~points:800 profile
      ~lo:(fermi +. spec.Charge_fit.offsets.(0) -. spec.Charge_fit.window -. 0.4)
      ~hi:(fermi +. spec.Charge_fit.offsets.(k - 1) +. 0.3)
  in
  let objective offsets =
    let ascending =
      let rec go i =
        i >= k - 1 || (offsets.(i + 1) -. offsets.(i) >= min_gap && go (i + 1))
      in
      go 0
    in
    if not ascending then 1e9
    else begin
      match
        Cnt_model.make ?polarity
          ~spec:(Charge_fit.with_offsets spec offsets)
          ~theory device
      with
      | model -> current_error ~grid ~reference model
      | exception _ -> 1e9
    end
  in
  let best_offsets, best_err =
    Optimize.nelder_mead ~tol:1e-7 ~max_iter ~initial_step:0.25 objective
      (Array.copy spec.Charge_fit.offsets)
  in
  let refined = Charge_fit.with_offsets spec best_offsets in
  (refined, Cnt_model.make ?polarity ~spec:refined ~theory device, best_err)
