(* Tests for the CNT physics layer: band structure, density of states,
   Fermi statistics, mobile charge integrals, device electrostatics and
   the FETToy-equivalent reference model. *)

open Cnt_numerics
open Cnt_physics

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Special.approx_equal ~atol:eps ~rtol:eps expected actual) then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Band structure                                                      *)
(* ------------------------------------------------------------------ *)

let test_chirality_validation () =
  Alcotest.(check bool) "rejects m > n" true
    (match Band.chirality 3 5 with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "rejects n = 0" true
    (match Band.chirality 0 0 with exception Invalid_argument _ -> true | _ -> false)

let test_metallicity () =
  Alcotest.(check bool) "armchair metallic" true (Band.is_metallic (Band.chirality 5 5));
  Alcotest.(check bool) "(9,0) metallic" true (Band.is_metallic (Band.chirality 9 0));
  Alcotest.(check bool) "(10,0) semiconducting" false
    (Band.is_metallic (Band.chirality 10 0));
  Alcotest.(check bool) "(13,0) semiconducting" false
    (Band.is_metallic (Band.chirality 13 0))

let test_diameter_13_0 () =
  (* (13,0) zigzag: d = a * 13 / pi with a = 0.246 nm -> ~1.018 nm *)
  let d = Band.diameter (Band.chirality 13 0) in
  check_close ~eps:0.02e-9 "(13,0) diameter" 1.018e-9 d

let test_band_gap_inverse_diameter () =
  (* Eg ~ 0.85 eV for a 1 nm tube, halves at 2 nm *)
  check_close ~eps:1e-3 "1 nm" 0.852 (Band.band_gap_of_diameter 1.0e-9);
  check_close ~eps:1e-3 "2 nm" 0.426 (Band.band_gap_of_diameter 2.0e-9)

let test_band_gap_metallic_raises () =
  Alcotest.(check bool) "metallic raises" true
    (match Band.band_gap (Band.chirality 6 6) with
    | exception Band.Not_semiconducting _ -> true
    | _ -> false)

let test_subband_multipliers () =
  Alcotest.(check (list int)) "sequence 1 2 4 5 7 8"
    [ 1; 2; 4; 5; 7; 8 ]
    (List.map Band.subband_multiplier [ 1; 2; 3; 4; 5; 6 ])

let test_subband_half_gaps () =
  let gaps = Band.subband_half_gaps ~diameter:1.0e-9 ~count:3 in
  check_close ~eps:1e-6 "first = Eg/2" 0.426 gaps.(0);
  check_close ~eps:1e-6 "second = Eg" (2.0 *. gaps.(0)) gaps.(1);
  check_close ~eps:1e-6 "third = 2Eg" (4.0 *. gaps.(0)) gaps.(2)

let test_fermi_velocity () =
  (* ~ 1e6 m/s for graphene *)
  Alcotest.(check bool) "order of magnitude" true
    (Band.fermi_velocity > 0.8e6 && Band.fermi_velocity < 1.2e6)

(* ------------------------------------------------------------------ *)
(* Density of states                                                   *)
(* ------------------------------------------------------------------ *)

let dos1 = Dos.of_diameter 1.0e-9

let test_dos_zero_in_gap () =
  check_close "in gap" 0.0 (Dos.density dos1 (-0.05))

let test_dos_van_hove_divergence () =
  let d1 = Dos.density dos1 1e-3 and d2 = Dos.density dos1 1e-5 in
  Alcotest.(check bool) "diverges" true (d2 > d1 && d2 > 10.0 *. Dos.d0)

let test_dos_asymptote () =
  let d = Dos.density dos1 10.0 in
  Alcotest.(check bool) "approaches D0" true (Float.abs (d -. Dos.d0) /. Dos.d0 < 0.01)

let test_dos_subband_steps () =
  let dos3 = Dos.of_diameter ~subbands:3 1.0e-9 in
  let just_below = Dos.density dos3 (Dos.edge dos3 1 -. 1e-3) in
  let just_above = Dos.density dos3 (Dos.edge dos3 1 +. 1e-4) in
  Alcotest.(check bool) "step up at second edge" true (just_above > 2.0 *. just_below)

let test_dos_validation () =
  Alcotest.(check bool) "empty" true
    (match Dos.create [||] with exception Invalid_argument _ -> true | _ -> false);
  Alcotest.(check bool) "unsorted" true
    (match Dos.create [| 0.5; 0.3 |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fermi statistics                                                    *)
(* ------------------------------------------------------------------ *)

let test_occupation_basics () =
  check_close "at mu" 0.5 (Fermi.occupation ~temp:300.0 ~mu:0.1 0.1);
  Alcotest.(check bool) "deep below filled" true
    (Fermi.occupation ~temp:300.0 ~mu:0.0 (-0.5) > 0.999999);
  Alcotest.(check bool) "far above empty" true
    (Fermi.occupation ~temp:300.0 ~mu:0.0 0.5 < 1e-6)

let test_occupation_temperature_broadening () =
  let cold = Fermi.occupation ~temp:150.0 ~mu:0.0 0.05 in
  let hot = Fermi.occupation ~temp:450.0 ~mu:0.0 0.05 in
  Alcotest.(check bool) "broadens" true (hot > cold)

let test_kt_ev () =
  check_close ~eps:1e-4 "300 K" 0.02585 (Fermi.kt_ev 300.0)

let test_f0_closed_form () =
  check_close "F0(0)" (log 2.0) (Fermi.integral_order0 0.0);
  (* degenerate limit: F0(eta) -> eta for large eta *)
  Alcotest.(check bool) "degenerate" true
    (Float.abs (Fermi.integral_order0 50.0 -. 50.0) < 1e-12);
  (* non-degenerate limit: F0(eta) -> e^eta for very negative eta *)
  check_close ~eps:1e-12 "boltzmann" (exp (-30.0)) (Fermi.integral_order0 (-30.0))

let test_f0_derivative () =
  let eta = 1.7 in
  let h = 1e-6 in
  let fd = (Fermi.integral_order0 (eta +. h) -. Fermi.integral_order0 (eta -. h)) /. (2.0 *. h) in
  check_close ~eps:1e-8 "derivative" fd (Fermi.integral_order0' eta)

(* Eq. 13's closed form, which FETToy and the table model run, against
   the integral it stands for: F0(eta) = (1/kT) int_0^inf f(E) dE with
   the occupation f at mu = eta kT.  The tail beyond E = (eta + 60) kT
   is below e^-60. *)
let test_fermi_integral_numeric_matches_order0 () =
  let temp = 300.0 in
  let kt = Fermi.kt_ev temp in
  List.iter
    (fun eta ->
      let numeric =
        Quadrature.adaptive_simpson
          (Fermi.occupation ~temp ~mu:(eta *. kt))
          0.0
          ((eta +. 60.0) *. kt)
        /. kt
      in
      check_close ~eps:1e-8
        (Printf.sprintf "eta=%g" eta)
        (Fermi.integral_order0 eta) numeric)
    [ -5.0; 0.0; 3.0; 20.0 ]

(* ------------------------------------------------------------------ *)
(* Mobile charge                                                       *)
(* ------------------------------------------------------------------ *)

let profile = Charge.profile ~dos:dos1 ~temp:300.0 ~fermi:(-0.32) ()

let test_density_positive_increasing () =
  let n1 = Charge.density profile (-0.2) in
  let n2 = Charge.density profile 0.0 in
  let n3 = Charge.density profile 0.2 in
  Alcotest.(check bool) "positive" true (n1 > 0.0);
  Alcotest.(check bool) "increasing" true (n2 > n1 && n3 > n2)

let test_density_boltzmann_tail () =
  let kt = Fermi.kt_ev 300.0 in
  let n1 = Charge.density profile (-0.45) in
  let n2 = Charge.density profile (-0.40) in
  check_close ~eps:2e-2 "exponential tail" (exp (0.05 /. kt)) (n2 /. n1)

let test_density_degenerate_slope () =
  let u1 = 0.8 and u2 = 1.0 in
  let slope = (Charge.density profile u2 -. Charge.density profile u1) /. (u2 -. u1) in
  Alcotest.(check bool) "slope within 15% of D0/2" true
    (Float.abs (slope -. (0.5 *. Dos.d0)) /. (0.5 *. Dos.d0) < 0.15)

let test_density_derivative_consistent () =
  let u = -0.25 in
  let h = 1e-5 in
  let fd = (Charge.density profile (u +. h) -. Charge.density profile (u -. h)) /. (2.0 *. h) in
  let an = Charge.density_derivative profile u in
  check_close ~eps:1e-3 "relative match" 1.0 (an /. fd)

let test_equilibrium_small_for_low_fermi () =
  let n0 = Charge.equilibrium profile in
  let n_on = Charge.density profile 0.1 in
  Alcotest.(check bool) "negligible" true (n0 < 1e-4 *. n_on)

let test_qs_sign_and_shift () =
  let n0 = Charge.equilibrium profile in
  let q1 = Charge.qs ~n0 profile (-0.40) in
  let q2 = Charge.qs ~n0 profile (-0.50) in
  Alcotest.(check bool) "positive" true (q1 > 0.0);
  Alcotest.(check bool) "grows downward" true (q2 > q1);
  check_close ~eps:1e-18 "qd = qs shifted"
    (Charge.qs ~n0 profile (-0.2))
    (Charge.qd ~n0 profile ~vds:0.3 (-0.5))

let test_qs_derivative_negative () =
  Alcotest.(check bool) "dQS/dV < 0" true (Charge.qs_derivative profile (-0.35) < 0.0)

let test_quantum_capacitance_magnitude () =
  let cq = Float.abs (Charge.qs_derivative profile (-0.45)) in
  Alcotest.(check bool) "order of magnitude" true (cq > 5e-11 && cq < 1e-9)

let test_integrand_counter () =
  Charge.reset_counter ();
  ignore (Charge.density profile 0.0);
  let n = Charge.evaluation_count () in
  Alcotest.(check bool) "counts evaluations" true (n > 10)

(* ------------------------------------------------------------------ *)
(* Device                                                              *)
(* ------------------------------------------------------------------ *)

let test_device_defaults () =
  let d = Device.default in
  check_close ~eps:1e-12 "diameter" 1.0e-9 d.Device.diameter;
  check_close "fermi" (-0.32) d.Device.fermi;
  check_close ~eps:1e-3 "band gap" 0.852 (Device.band_gap d)

let test_device_capacitances () =
  let d = Device.default in
  let cg = Device.c_gate d and cs = Device.c_sigma d in
  check_close ~eps:1e-13 "gate capacitance"
    (2.0 *. Float.pi *. 3.9 *. Constants.vacuum_permittivity /. log 4.0)
    cg;
  check_close ~eps:1e-13 "alpha_g" 0.88 (cg /. cs);
  check_close ~eps:1e-13 "partition" cs
    (Device.c_gate d +. Device.c_drain d +. Device.c_source d)

let test_device_terminal_charge () =
  let d = Device.default in
  check_close ~eps:1e-22 "Qt"
    ((Device.c_gate d *. 0.5) +. (Device.c_drain d *. 0.3))
    (Device.terminal_charge d ~vgs:0.5 ~vds:0.3)

let test_device_validation () =
  Alcotest.(check bool) "alpha sum > 1" true
    (match Device.create ~alpha_g:0.9 ~alpha_d:0.2 () with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative diameter" true
    (match Device.create ~diameter:(-1.0) () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Every range guard must reject a NaN, not let it through to a fit or
   a root search that never converges on it. *)
let test_nan_rejected () =
  let rejects what f =
    Alcotest.(check bool) what true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects "Device.create ~temp:nan" (fun () -> ignore (Device.create ~temp:nan ()));
  rejects "Device.create ~diameter:nan" (fun () ->
      ignore (Device.create ~diameter:nan ()));
  rejects "Device.create ~oxide_thickness:nan" (fun () ->
      ignore (Device.create ~oxide_thickness:nan ()));
  rejects "Device.create ~dielectric:nan" (fun () ->
      ignore (Device.create ~dielectric:nan ()));
  rejects "Device.create ~alpha_g:nan" (fun () ->
      ignore (Device.create ~alpha_g:nan ()));
  rejects "Device.create ~alpha_d:nan" (fun () ->
      ignore (Device.create ~alpha_d:nan ()));
  rejects "Charge.profile ~temp:nan" (fun () ->
      ignore (Charge.profile ~dos:(Dos.of_diameter 1e-9) ~temp:nan ~fermi:0.0 ()));
  rejects "Band.band_gap_of_diameter nan" (fun () ->
      ignore (Band.band_gap_of_diameter nan));
  rejects "Dos.create [| nan |]" (fun () -> ignore (Dos.create [| nan |]))

let test_javey_device () =
  let d = Device.javey in
  check_close ~eps:1e-12 "diameter" 1.6e-9 d.Device.diameter;
  check_close "fermi" (-0.05) d.Device.fermi;
  Alcotest.(check bool) "weaker gate coupling than default" true
    (Device.c_gate d < Device.c_gate Device.default)

(* ------------------------------------------------------------------ *)
(* FETToy reference model                                              *)
(* ------------------------------------------------------------------ *)

let reference = Fettoy.create Device.default

let test_residual_monotone () =
  let f v = Fettoy.residual reference ~vgs:0.5 ~vds:0.3 v in
  let vs = Grid.linspace (-0.8) 0.2 21 in
  for i = 0 to Array.length vs - 2 do
    Alcotest.(check bool) "increasing" true (f vs.(i + 1) > f vs.(i))
  done

let test_residual_derivative_positive () =
  List.iter
    (fun v ->
      Alcotest.(check bool) "F' > 0" true
        (Fettoy.residual_derivative reference ~vds:0.3 v > 0.0))
    [ -0.6; -0.35; -0.1; 0.1 ]

let test_solve_vsc_residual () =
  let s = Fettoy.solve_vsc_stats reference ~vgs:0.5 ~vds:0.3 in
  Alcotest.(check bool) "tiny residual" true (Float.abs s.Fettoy.residual < 1e-20)

let test_vsc_negative_under_positive_gate () =
  let v = Fettoy.solve_vsc reference ~vgs:0.5 ~vds:0.3 in
  Alcotest.(check bool) "negative" true (v < 0.0);
  let laplace =
    -.Device.terminal_charge Device.default ~vgs:0.5 ~vds:0.3
    /. Device.c_sigma Device.default
  in
  Alcotest.(check bool) "above laplace" true (v > laplace)

let test_vsc_monotone_in_vgs () =
  let v1 = Fettoy.solve_vsc reference ~vgs:0.2 ~vds:0.3 in
  let v2 = Fettoy.solve_vsc reference ~vgs:0.4 ~vds:0.3 in
  let v3 = Fettoy.solve_vsc reference ~vgs:0.6 ~vds:0.3 in
  Alcotest.(check bool) "decreasing in VGS" true (v3 < v2 && v2 < v1)

let test_ids_zero_at_zero_vds () =
  check_close ~eps:1e-18 "no bias no current" 0.0
    (Fettoy.ids reference ~vgs:0.5 ~vds:0.0)

let test_ids_monotone_in_vgs_and_vds () =
  let i1 = Fettoy.ids reference ~vgs:0.3 ~vds:0.3 in
  let i2 = Fettoy.ids reference ~vgs:0.5 ~vds:0.3 in
  Alcotest.(check bool) "grows with VGS" true (i2 > i1);
  let i3 = Fettoy.ids reference ~vgs:0.5 ~vds:0.1 in
  let i4 = Fettoy.ids reference ~vgs:0.5 ~vds:0.5 in
  Alcotest.(check bool) "grows with VDS" true (i4 > i3 && i3 > 0.0)

let test_ids_saturates () =
  let i1 = Fettoy.ids reference ~vgs:0.4 ~vds:0.4 in
  let i2 = Fettoy.ids reference ~vgs:0.4 ~vds:0.6 in
  Alcotest.(check bool) "saturation" true ((i2 -. i1) /. i2 < 0.1)

let test_ids_magnitude_matches_paper () =
  (* paper fig. 6: at VG=0.6, VDS=0.6 the current is ~8.5 uA *)
  let i = Fettoy.ids reference ~vgs:0.6 ~vds:0.6 in
  Alcotest.(check bool) "within band" true (i > 6e-6 && i < 11e-6)

let test_subthreshold_slope () =
  let i1 = Fettoy.ids reference ~vgs:0.05 ~vds:0.3 in
  let i2 = Fettoy.ids reference ~vgs:0.15 ~vds:0.3 in
  let decades = log10 (i2 /. i1) in
  Alcotest.(check bool) "subthreshold swing plausible" true
    (decades > 1.0 && decades < 2.0)

let test_output_family_shape () =
  let fam =
    Fettoy.output_family reference ~vgs_list:[ 0.3; 0.5 ]
      ~vds_points:(Grid.linspace 0.0 0.6 7)
  in
  Alcotest.(check int) "two curves" 2 (List.length fam);
  List.iter (fun (_, c) -> Alcotest.(check int) "points" 7 (Array.length c)) fam

let test_transfer_shape () =
  let t = Fettoy.transfer reference ~vds:0.4 ~vgs_points:(Grid.linspace 0.1 0.6 6) in
  Alcotest.(check int) "points" 6 (Array.length t);
  for i = 0 to 4 do
    Alcotest.(check bool) "monotone" true (t.(i + 1) > t.(i))
  done

let test_charge_api_consistency () =
  let p = Device.charge_profile Device.default in
  let n0 = Charge.equilibrium p in
  check_close ~eps:1e-6 "relative match" 1.0
    (Fettoy.charge_qs reference (-0.4) /. Charge.qs ~n0 p (-0.4))

let test_temperature_dependence () =
  let cold = Fettoy.create (Device.create ~temp:150.0 ()) in
  let hot = Fettoy.create (Device.create ~temp:450.0 ()) in
  let i_cold = Fettoy.ids cold ~vgs:0.15 ~vds:0.3 in
  let i_hot = Fettoy.ids hot ~vgs:0.15 ~vds:0.3 in
  Alcotest.(check bool) "thermionic" true (i_hot > 10.0 *. i_cold)


let test_velocity_bounded () =
  (* injection velocity is positive in the on-state and below the
     band-structure velocity limit (~8e5 m/s for a 1 nm tube) *)
  let v = Fettoy.average_velocity reference ~vgs:0.5 ~vds:0.5 in
  Alcotest.(check bool) "positive" true (v > 0.0);
  Alcotest.(check bool) "below band limit" true (v < Band.fermi_velocity)

let test_velocity_grows_with_vds () =
  (* at low drain bias back-injection cancels forward flux: the average
     velocity rises with V_DS toward the injection limit *)
  let v1 = Fettoy.average_velocity reference ~vgs:0.5 ~vds:0.05 in
  let v2 = Fettoy.average_velocity reference ~vgs:0.5 ~vds:0.5 in
  Alcotest.(check bool) "increases" true (v2 > v1)

let test_densities_ordering () =
  let ns, nd = Fettoy.densities reference ~vgs:0.5 ~vds:0.4 in
  Alcotest.(check bool) "source side fuller under drain bias" true (ns > nd);
  Alcotest.(check bool) "positive" true (nd > 0.0)

let prop_solver_residual =
  QCheck2.Test.make ~name:"reference VSC solves eq. (7) across random bias" ~count:40
    QCheck2.Gen.(pair (float_range 0.0 0.8) (float_range 0.0 0.8))
    (fun (vgs, vds) ->
      let s = Fettoy.solve_vsc_stats reference ~vgs ~vds in
      Float.abs s.Fettoy.residual < 1e-18)

let prop_ids_nonnegative =
  QCheck2.Test.make ~name:"IDS >= 0 for VDS >= 0" ~count:40
    QCheck2.Gen.(pair (float_range 0.0 0.8) (float_range 0.0 0.8))
    (fun (vgs, vds) -> Fettoy.ids reference ~vgs ~vds >= -1e-15)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_physics"
    [
      ( "band",
        [
          tc "chirality validation" test_chirality_validation;
          tc "metallicity rule" test_metallicity;
          tc "(13,0) diameter" test_diameter_13_0;
          tc "band gap vs diameter" test_band_gap_inverse_diameter;
          tc "metallic band gap raises" test_band_gap_metallic_raises;
          tc "subband multipliers" test_subband_multipliers;
          tc "subband half gaps" test_subband_half_gaps;
          tc "fermi velocity" test_fermi_velocity;
        ] );
      ( "dos",
        [
          tc "zero in the gap" test_dos_zero_in_gap;
          tc "van hove divergence" test_dos_van_hove_divergence;
          tc "metallic asymptote" test_dos_asymptote;
          tc "second subband step" test_dos_subband_steps;
          tc "input validation" test_dos_validation;
        ] );
      ( "fermi",
        [
          tc "occupation basics" test_occupation_basics;
          tc "temperature broadening" test_occupation_temperature_broadening;
          tc "kT at 300K" test_kt_ev;
          tc "F0 closed form limits" test_f0_closed_form;
          tc "F0 derivative" test_f0_derivative;
          tc "numeric matches closed form" test_fermi_integral_numeric_matches_order0;
        ] );
      ( "charge",
        [
          tc "density positive and increasing" test_density_positive_increasing;
          tc "boltzmann tail" test_density_boltzmann_tail;
          tc "degenerate slope ~ D0/2" test_density_degenerate_slope;
          tc "analytic derivative" test_density_derivative_consistent;
          tc "equilibrium density negligible" test_equilibrium_small_for_low_fermi;
          tc "QS sign and QD shift" test_qs_sign_and_shift;
          tc "dQS/dV negative" test_qs_derivative_negative;
          tc "quantum capacitance magnitude" test_quantum_capacitance_magnitude;
          tc "integrand counter" test_integrand_counter;
        ] );
      ( "device",
        [
          tc "defaults" test_device_defaults;
          tc "capacitances" test_device_capacitances;
          tc "terminal charge" test_device_terminal_charge;
          tc "validation" test_device_validation;
          tc "javey device" test_javey_device;
          tc "NaN arguments rejected" test_nan_rejected;
        ] );
      ( "fettoy",
        [
          tc "residual monotone" test_residual_monotone;
          tc "residual derivative positive" test_residual_derivative_positive;
          tc "solver residual tiny" test_solve_vsc_residual;
          tc "VSC negative under gate bias" test_vsc_negative_under_positive_gate;
          tc "VSC monotone in VGS" test_vsc_monotone_in_vgs;
          tc "IDS zero at zero VDS" test_ids_zero_at_zero_vds;
          tc "IDS monotone" test_ids_monotone_in_vgs_and_vds;
          tc "IDS saturates" test_ids_saturates;
          tc "IDS magnitude matches paper fig 6" test_ids_magnitude_matches_paper;
          tc "subthreshold slope" test_subthreshold_slope;
          tc "output family shape" test_output_family_shape;
          tc "transfer shape" test_transfer_shape;
          tc "charge API consistency" test_charge_api_consistency;
          tc "temperature dependence" test_temperature_dependence;
          tc "injection velocity bounded" test_velocity_bounded;
          tc "velocity grows with drain bias" test_velocity_grows_with_vds;
          tc "density ordering" test_densities_ordering;
        ] );
      ( "fettoy-properties",
        List.map QCheck_alcotest.to_alcotest [ prop_solver_residual; prop_ids_nonnegative ]
      );
    ]
