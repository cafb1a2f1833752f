(* Physical constants (SI units, CODATA 2018). *)

let elementary_charge = 1.602176634e-19
(* Coulomb *)

let boltzmann = 1.380649e-23
(* Joule per Kelvin *)

let planck = 6.62607015e-34
(* Joule second *)

let hbar = planck /. (2.0 *. Float.pi)
(* reduced Planck constant, Joule second *)

let vacuum_permittivity = 8.8541878128e-12
(* Farad per metre *)

let electron_volt = elementary_charge
(* Joule *)

(* Thermal energy k*T in Joules at temperature [t] in Kelvin. *)
let thermal_energy t = boltzmann *. t

(* Convert an energy in electron-volts to Joules. *)
let ev_to_joule e = e *. electron_volt

(* Convert an energy in Joules to electron-volts. *)
let joule_to_ev e = e /. electron_volt
