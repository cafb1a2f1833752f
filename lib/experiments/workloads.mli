(** Shared bias grids and model builders used by every reproduction
    experiment. *)

open Cnt_physics
open Cnt_core

val vds_points : float array
(** V_DS sweep of the paper's characteristics: 0..0.6 V, 61 points. *)

val family_vgs : float list
(** Gate voltages of figures 6-7: 0.3..0.6 V in 0.05 V steps. *)

val table_vgs : float list
(** Gate voltages of tables II-IV: 0.1..0.6 V in 0.1 V steps. *)

val table_temps : float list

type models = {
  device : Device.t;
  reference : Fettoy.t;
  model1 : Cnt_model.t;
  model2 : Cnt_model.t;
}

val build : ?tuned:bool -> Device.t -> models
(** Reference plus both piecewise models for a device; [tuned]
    (default true) re-optimises boundary offsets per condition. *)

val condition : ?tuned:bool -> temp:float -> fermi:float -> unit -> models
(** {!build} on the paper's default device at a given temperature and
    Fermi level.  Memoised per [(tuned, temp, fermi)] — the corner
    grids of the RMS tables and the repro experiments share one fit per
    condition instead of redoing the boundary optimisation. *)

val reference_curve : models -> vgs:float -> float array

val model_curve : Cnt_model.t -> vgs:float -> float array
(** Model drain currents over {!vds_points}, evaluated through
    {!Cnt_model.eval_batch} (bitwise-equal to the scalar loop). *)

val family_size : int
(** Bias points in one table-I workload (7 x 61). *)

val reference_family : models -> (float * float array) list
val model_family : Cnt_model.t -> (float * float array) list
