(* Non-equilibrium mobile charge density in a ballistic nanotube.

   The quantity everything else is built from is the half-filled state
   density (paper eqs. 2-4)

     N(U) = 1/2 * int D(E) f(E - U) dE          [states / m]

   evaluated with the Fermi level at U (eV, measured from the first
   subband edge).  Then

     N_S = N(U_SF),  N_D = N(U_DF),  N_0 = 2 N(E_F)
     U_SF = E_F - V_SC,  U_DF = E_F - V_SC - V_DS   (volts = eV / q)

   The van Hove singularity at each subband edge is removed by the
   substitution E' = Delta cosh(theta) (E' from mid-gap), under which
   D(E') dE' = D0 * Delta * cosh(theta) d(theta) exactly. *)

open Cnt_numerics

(* Global integrand-evaluation counter: lets tests and benchmarks show
   how much numerical integration the reference model performs per bias
   point (the cost the paper's closed form eliminates). *)
let integrand_evaluations = ref 0

let reset_counter () = integrand_evaluations := 0
let evaluation_count () = !integrand_evaluations

type profile = {
  dos : Dos.t;
  temp : float; (* K *)
  fermi : float; (* eV, relative to the first subband edge *)
  tol : float; (* quadrature tolerance, relative to D0 scale *)
}

let profile ?(tol = 1e-10) ~dos ~temp ~fermi () =
  if not (temp > 0.0) then
    invalid_arg "Charge.profile: temperature must be positive";
  { dos; temp; fermi; tol }

(* Contribution of one subband with half-gap [delta] (eV) whose edge
   sits [offset] eV above the first subband edge:

     n_p(U) = 1/2 * D0 * delta *
              int_0^theta_max cosh t * f(offset + delta*(cosh t - 1) - U) dt *)
let subband_density ~kt ~tol ~delta ~offset u =
  (* occupation is negligible beyond ~45 kT above the chemical
     potential; find theta_max such that the state energy reaches it *)
  let e_top = Float.max (u -. offset) 0.0 +. (45.0 *. kt) in
  let cosh_max = 1.0 +. (e_top /. delta) in
  let theta_max = log (cosh_max +. sqrt ((cosh_max *. cosh_max) -. 1.0)) in
  let integrand theta =
    incr integrand_evaluations;
    let e = offset +. (delta *. (cosh theta -. 1.0)) in
    cosh theta *. Special.logistic ((e -. u) /. kt)
  in
  0.5 *. Dos.d0 *. delta
  *. Quadrature.adaptive_simpson ~tol integrand 0.0 theta_max

(* Same with the Fermi factor replaced by -df/dE, giving dN/dU. *)
let subband_density_derivative ~kt ~tol ~delta ~offset u =
  let e_top = Float.max (u -. offset) 0.0 +. (45.0 *. kt) in
  let cosh_max = 1.0 +. (e_top /. delta) in
  let theta_max = log (cosh_max +. sqrt ((cosh_max *. cosh_max) -. 1.0)) in
  let integrand theta =
    incr integrand_evaluations;
    let e = offset +. (delta *. (cosh theta -. 1.0)) in
    cosh theta *. (-.Special.logistic' ((e -. u) /. kt) /. kt)
  in
  0.5 *. Dos.d0 *. delta
  *. Quadrature.adaptive_simpson ~tol integrand 0.0 theta_max

let density p u =
  let kt = Fermi.kt_ev p.temp in
  let gaps = Dos.half_gaps p.dos in
  let first = gaps.(0) in
  Array.fold_left ( +. ) 0.0
    (Array.map
       (fun delta ->
         subband_density ~kt ~tol:p.tol ~delta ~offset:(delta -. first) u)
       gaps)

let density_derivative p u =
  let kt = Fermi.kt_ev p.temp in
  let gaps = Dos.half_gaps p.dos in
  let first = gaps.(0) in
  Array.fold_left ( +. ) 0.0
    (Array.map
       (fun delta ->
         subband_density_derivative ~kt ~tol:p.tol ~delta ~offset:(delta -. first) u)
       gaps)

(* Equilibrium density N0 = int D(E) f(E - E_F) dE = 2 N(E_F). *)
let equilibrium p = 2.0 *. density p p.fermi

(* Source-side mobile charge (paper eq. 10), Coulombs per metre, as a
   function of the self-consistent voltage in volts:
   Q_S(V) = q * (N(E_F - V) - N0/2). *)
let qs ?n0 p vsc =
  let n0 = match n0 with Some n -> n | None -> equilibrium p in
  Constants.elementary_charge *. (density p (p.fermi -. vsc) -. (0.5 *. n0))

(* Drain-side mobile charge (paper eq. 11):
   Q_D(V) = q * (N(E_F - V - V_DS) - N0/2) = Q_S(V + V_DS). *)
let qd ?n0 p ~vds vsc = qs ?n0 p (vsc +. vds)

(* dQ_S/dV in F/m (negative).  The magnitude at the band edge is the
   quantum capacitance of the tube. *)
let qs_derivative p vsc =
  -.Constants.elementary_charge *. density_derivative p (p.fermi -. vsc)
