(** Table-driven (PCHIP lookup) charge model: the limiting case of
    "more pieces" — near-exact charge representation, solved by a few
    Newton steps on the interpolant.  Used as a third accuracy/speed
    point in the ablation benchmarks. *)

open Cnt_physics

type t

val make : ?points:int -> ?span:float -> Device.t -> t
(** Tabulate the theoretical charge curve on [points] nodes spanning
    [span] volts below the Fermi level (defaults 256 nodes, 1.2 V). *)

val device : t -> Device.t

val qs : t -> float -> float
(** Interpolated [Q_S(V_SC)], zero above the table. *)

val solve_vsc : t -> vgs:float -> vds:float -> float
val ids : t -> vgs:float -> vds:float -> float
