(** Density of states of a semiconducting carbon nanotube, per unit
    length, including spin and valley degeneracy.  Energies in eV are
    measured from the first conduction-subband edge. *)

val d0 : float
(** Asymptotic density of states [8/(3 pi a_cc gamma)], per eV per
    metre. *)

type t

val create : float array -> t
(** Build from ascending subband half-gaps [Delta_p] in eV. *)

val of_diameter : ?subbands:int -> float -> t
(** DOS of a tube with the given diameter in metres, keeping
    [subbands] subbands (default 1). *)

val half_gaps : t -> float array
val edge : t -> int -> float
(** [edge t p] is the energy (eV, from the first edge) at which subband
    [p] (0-based) begins. *)

val density : t -> float -> float
(** [density t e] in states/(eV.m); diverges at subband edges (the van
    Hove singularities). *)
