(* Fermi-Dirac statistics.

   Energies are in eV throughout the physics layer; temperatures in
   Kelvin.  Provides the occupation factor and the closed-form order-0
   integral (paper eq. 13), the only order the model needs. *)

open Cnt_numerics

(* Thermal energy in eV. *)
let kt_ev temp = Constants.joule_to_ev (Constants.thermal_energy temp)

(* Fermi occupation f(e) = 1 / (1 + exp((e - mu)/kT)), energies in eV. *)
let occupation ~temp ~mu e = Special.logistic ((e -. mu) /. kt_ev temp)

(* Fermi-Dirac integral of order 0 (paper eq. 13):
   F0(eta) = ln(1 + exp eta).  Exact closed form. *)
let integral_order0 eta = Special.log1p_exp eta

(* Derivative of F0: the logistic function of -eta. *)
let integral_order0' eta = Special.logistic (-.eta)
