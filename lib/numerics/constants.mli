(** Physical constants in SI units (CODATA 2018 exact values where
    defined), plus small unit-conversion helpers used throughout the
    library. *)

val elementary_charge : float
(** Elementary charge [q], in Coulombs. *)

val boltzmann : float
(** Boltzmann constant [k], in J/K. *)

val planck : float
(** Planck constant [h], in J.s. *)

val hbar : float
(** Reduced Planck constant [h/2pi], in J.s. *)

val vacuum_permittivity : float
(** Vacuum permittivity [eps0], in F/m. *)

val electron_volt : float
(** One electron-volt, in Joules. *)

val thermal_energy : float -> float
(** [thermal_energy t] is [k*t] in Joules for [t] in Kelvin. *)

val ev_to_joule : float -> float
(** Convert electron-volts to Joules. *)

val joule_to_ev : float -> float
(** Convert Joules to electron-volts. *)
