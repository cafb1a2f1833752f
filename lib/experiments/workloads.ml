(* Shared workload definitions: the bias grids and model builders every
   experiment draws from, so tables and figures agree on parameters. *)

open Cnt_numerics
open Cnt_physics
open Cnt_core

(* The paper's output-characteristic sweep: V_DS from 0 to 0.6 V. *)
let vds_points = Grid.linspace 0.0 0.6 61

(* Gate voltages of figures 6 and 7 (0.3..0.6 in 0.05 steps). *)
let family_vgs = [ 0.3; 0.35; 0.4; 0.45; 0.5; 0.55; 0.6 ]

(* Gate voltages of the RMS tables (0.1..0.6 in 0.1 steps). *)
let table_vgs = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6 ]

(* Condition grids of tables II-IV. *)
let table_temps = [ 150.0; 300.0; 450.0 ]

type models = {
  device : Device.t;
  reference : Fettoy.t;
  model1 : Cnt_model.t;
  model2 : Cnt_model.t;
}

(* Build the reference and both piecewise models for one operating
   condition.  [tuned] (default) refines the boundary offsets per
   condition against the reference current — the paper's numerically
   optimised boundary placement; untuned uses the central-condition
   offsets as-is. *)
let build ?(tuned = true) device =
  let reference = Fettoy.create device in
  let make spec =
    if tuned then begin
      let _, model, _ = Model_tuning.optimise_for_current device spec in
      model
    end
    else Cnt_model.make ~spec device
  in
  {
    device;
    reference;
    model1 = make Charge_fit.model1_spec;
    model2 = make Charge_fit.model2_spec;
  }

(* Memoised per-condition model construction.  Rms_tables and Repro
   both walk the full (temperature, Fermi) corner grid, and the tuned
   build (Model_tuning.optimise_for_current) is by far the most
   expensive step — previously redone identically by every caller. *)
let condition_tbl : (bool * float * float, models) Hashtbl.t = Hashtbl.create 16

let condition ?(tuned = true) ~temp ~fermi () =
  let key = (tuned, temp, fermi) in
  match Hashtbl.find_opt condition_tbl key with
  | Some m -> m
  | None ->
      let m = build ~tuned (Device.create ~temp ~fermi ()) in
      Hashtbl.add condition_tbl key m;
      m

(* Reference and model characteristics over a V_DS sweep at one gate
   voltage. *)
let reference_curve m ~vgs =
  Array.map (fun vds -> Fettoy.ids m.reference ~vgs ~vds) vds_points

let model_curve model ~vgs =
  (Cnt_model.eval_batch model ~vgs:[| vgs |] ~vds:vds_points).(0)

(* The paper's table-I workload: one full family of output
   characteristics (7 gate curves x 61 drain points = 427 bias
   points). *)
let family_size = List.length family_vgs * Array.length vds_points

let reference_family m =
  Fettoy.output_family m.reference ~vgs_list:family_vgs ~vds_points

let model_family model =
  Cnt_model.output_family model ~vgs_list:family_vgs ~vds_points
