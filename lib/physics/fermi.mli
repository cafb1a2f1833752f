(** Fermi-Dirac statistics.  Energies in eV, temperatures in Kelvin. *)

val kt_ev : float -> float
(** Thermal energy [kT] in eV at the given temperature. *)

val occupation : temp:float -> mu:float -> float -> float
(** [occupation ~temp ~mu e] is the Fermi factor
    [1/(1 + exp((e - mu)/kT))]. *)

val integral_order0 : float -> float
(** Fermi-Dirac integral of order zero, exactly
    [ln (1 + exp eta)] (paper eq. 13). *)

val integral_order0' : float -> float
(** Derivative of {!integral_order0} with respect to [eta]. *)
