(* Property layer locking down the closed-form solver and the batched
   evaluation path:

   - the closed-form V_SC root agrees with a bisection oracle on the
     monotone residual to 1e-9, over random (T, E_F, V_GS, V_DS)
     tuples for both paper models;
   - [Cnt_model.eval_batch] is bitwise-equal to the scalar [ids] loop,
     for n- and p-type devices. *)

open Cnt_numerics
open Cnt_physics
open Cnt_core

let bits = Int64.bits_of_float

let check_bitwise msg a b =
  if bits a <> bits b then
    Alcotest.failf "%s: %.17g (%Lx) <> %.17g (%Lx)" msg a (bits a) b (bits b)

(* Random operating conditions drawn once, shared by the oracle and
   batch tests.  Conditions group several bias points per fitted model
   so the (expensive) fits stay a small multiple of the condition
   count while the bias tuples cover the full 4-d space. *)
let conditions = 8
let points_per_condition = 25

let sample_condition rng =
  let temp = Prng.uniform_range rng ~lo:150.0 ~hi:450.0 in
  let fermi = Prng.uniform_range rng ~lo:(-0.5) ~hi:0.0 in
  (temp, fermi)

let sample_bias rng =
  let vgs = Prng.uniform_range rng ~lo:0.0 ~hi:0.6 in
  let vds = Prng.uniform_range rng ~lo:0.0 ~hi:0.6 in
  (vgs, vds)

(* ------------------------------------------------------------------ *)
(* Closed-form roots vs a bisection oracle                             *)
(* ------------------------------------------------------------------ *)

(* The residual F is strictly increasing, so bisection on a widening
   bracket is an independent oracle for the unique root the closed-form
   scan-and-solve path claims to find. *)
let oracle_root solver ~qt ~vds =
  let f v = Scv_solver.residual solver ~qt ~vds v in
  let rec bracket w =
    if w > 64.0 then Alcotest.failf "oracle: no sign change within [-64, 64]"
    else if f (-.w) < 0.0 && f w > 0.0 then w
    else bracket (2.0 *. w)
  in
  let w = bracket 1.0 in
  (Rootfind.bisect ~tol:1e-12 ~max_iter:200 f (-.w) w).Rootfind.root

let test_oracle_agreement spec () =
  let rng = Prng.create ~seed:0x5eedL () in
  for _c = 1 to conditions do
    let temp, fermi = sample_condition rng in
    let device = Device.create ~temp ~fermi () in
    let model = Cnt_model.make ~spec device in
    let solver = Cnt_model.solver model in
    for _p = 1 to points_per_condition do
      let vgs, vds = sample_bias rng in
      let qt = Device.terminal_charge device ~vgs ~vds in
      let closed = Scv_solver.solve solver ~qt ~vds in
      let oracle = oracle_root solver ~qt ~vds in
      if Float.abs (closed -. oracle) > 1e-9 then
        Alcotest.failf
          "closed-form root %.15g vs oracle %.15g (T=%g, Ef=%g, vgs=%g, \
           vds=%g)"
          closed oracle temp fermi vgs vds
    done
  done

(* solve_plan must replay solve exactly, point by point *)
let test_plan_bitwise () =
  let rng = Prng.create ~seed:0x9a7eL () in
  let device = Device.default in
  let model = Cnt_model.model2 ~device () in
  let solver = Cnt_model.solver model in
  for _ = 1 to 50 do
    let vgs, vds = sample_bias rng in
    let qt = Device.terminal_charge device ~vgs ~vds in
    let plan = Scv_solver.plan solver ~vds in
    check_bitwise "solve_plan vs solve"
      (Scv_solver.solve solver ~qt ~vds)
      (Scv_solver.solve_plan plan ~qt)
  done

(* ------------------------------------------------------------------ *)
(* eval_batch vs scalar ids                                            *)
(* ------------------------------------------------------------------ *)

let vgs_grid = [| 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.33 |]
let vds_grid = Grid.linspace 0.0 0.6 13

let check_batch_matches_scalar msg model =
  let rows = Cnt_model.eval_batch model ~vgs:vgs_grid ~vds:vds_grid in
  Array.iteri
    (fun i vgs ->
      Array.iteri
        (fun j vds ->
          check_bitwise
            (Printf.sprintf "%s (vgs=%g, vds=%g)" msg vgs vds)
            (Cnt_model.ids model ~vgs ~vds)
            rows.(i).(j))
        vds_grid)
    vgs_grid

let test_batch_bitwise polarity () =
  check_batch_matches_scalar "batch" (Cnt_model.model2 ~polarity ())

let test_family_and_transfer_consistent () =
  let model = Cnt_model.model2 () in
  let vgs_list = [ 0.3; 0.45; 0.6 ] in
  let fam = Cnt_model.output_family model ~vgs_list ~vds_points:vds_grid in
  List.iter
    (fun (vgs, row) ->
      Array.iteri
        (fun j vds ->
          check_bitwise "output_family" (Cnt_model.ids model ~vgs ~vds) row.(j))
        vds_grid)
    fam;
  let tr = Cnt_model.transfer model ~vds:0.5 ~vgs_points:vgs_grid in
  Array.iteri
    (fun i vgs ->
      check_bitwise "transfer" (Cnt_model.ids model ~vgs ~vds:0.5) tr.(i))
    vgs_grid

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_property"
    [
      ( "oracle",
        [
          tc "model1 roots vs bisection" (test_oracle_agreement Charge_fit.model1_spec);
          tc "model2 roots vs bisection" (test_oracle_agreement Charge_fit.model2_spec);
          tc "solve_plan bitwise" test_plan_bitwise;
        ] );
      ( "batch",
        [
          tc "n-type bitwise" (test_batch_bitwise Cnt_model.N_type);
          tc "p-type bitwise" (test_batch_bitwise Cnt_model.P_type);
          tc "family and transfer" test_family_and_transfer_consistent;
        ] );
    ]
