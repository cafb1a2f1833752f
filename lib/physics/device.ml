(* CNFET device description and derived electrostatics.

   All capacitances are per unit tube length (F/m), matching the
   per-metre charge densities.  The gate insulator capacitance uses the
   coaxial approximation C = 2 pi kappa eps0 / ln((2 t_ox + d)/d); the
   drain and source coupling capacitances are specified through the
   FETToy-style control parameters alpha_G = C_G/C_Sigma and
   alpha_D = C_D/C_Sigma. *)

open Cnt_numerics

type t = {
  name : string;
  diameter : float; (* m *)
  oxide_thickness : float; (* m *)
  dielectric : float; (* relative permittivity of the gate insulator *)
  temp : float; (* K *)
  fermi : float; (* eV, source Fermi level from the first subband edge *)
  alpha_g : float; (* gate control parameter C_G / C_Sigma *)
  alpha_d : float; (* drain control parameter C_D / C_Sigma *)
  subbands : int; (* conduction subbands kept in the DOS *)
}

let create ?(name = "cnfet") ?(diameter = 1.0e-9) ?(oxide_thickness = 1.5e-9)
    ?(dielectric = 3.9) ?(temp = 300.0) ?(fermi = -0.32) ?(alpha_g = 0.88)
    ?(alpha_d = 0.035) ?(subbands = 1) () =
  (* every guard is written as [not (in range)], so a NaN is rejected *)
  if not (diameter > 0.0) then
    invalid_arg "Device.create: diameter must be positive";
  if not (oxide_thickness > 0.0) then
    invalid_arg "Device.create: oxide thickness must be positive";
  if not (dielectric >= 1.0) then
    invalid_arg "Device.create: dielectric constant below 1";
  if not (temp > 0.0) then
    invalid_arg "Device.create: temperature must be positive";
  if not (alpha_g > 0.0 && alpha_g <= 1.0) then
    invalid_arg "Device.create: alpha_g outside (0, 1]";
  if not (alpha_d >= 0.0 && alpha_g +. alpha_d <= 1.0) then
    invalid_arg "Device.create: alpha_d negative or alpha_g + alpha_d > 1";
  if subbands < 1 then invalid_arg "Device.create: need at least one subband";
  {
    name;
    diameter;
    oxide_thickness;
    dielectric;
    temp;
    fermi;
    alpha_g;
    alpha_d;
    subbands;
  }

(* FETToy 2.0 default device: 1 nm tube under 1.5 nm of SiO2-like
   dielectric, E_F = -0.32 eV, alpha_G = 0.88, alpha_D = 0.035.  The
   paper's figures 2-9 and tables I-IV use this device. *)
let default = create ()

(* The Javey et al. 2005 K-doped n-type device used by the paper's
   experimental comparison (Table V, figures 10-11): d = 1.6 nm,
   t_ox = 50 nm back gate, E_F = -0.05 eV, T = 300 K.  The thick back
   gate has weaker electrostatic control. *)
let javey =
  create ~name:"javey2005" ~diameter:1.6e-9 ~oxide_thickness:50.0e-9
    ~fermi:(-0.05) ~alpha_g:0.88 ~alpha_d:0.035 ()

let band_gap t = Band.band_gap_of_diameter t.diameter

(* Gate insulator capacitance per unit length, coaxial approximation. *)
let c_gate t =
  2.0 *. Float.pi *. t.dielectric *. Constants.vacuum_permittivity
  /. log (((2.0 *. t.oxide_thickness) +. t.diameter) /. t.diameter)

let c_sigma t = c_gate t /. t.alpha_g
let c_drain t = t.alpha_d *. c_sigma t
let c_source t = c_sigma t -. c_gate t -. c_drain t

let dos t = Dos.of_diameter ~subbands:t.subbands t.diameter

let charge_profile ?tol t =
  Charge.profile ?tol ~dos:(dos t) ~temp:t.temp ~fermi:t.fermi ()

(* Terminal charge Q_t = C_G V_G + C_D V_D + C_S V_S (paper eq. 8),
   with the source taken as reference (V_S = 0). *)
let terminal_charge t ~vgs ~vds = (c_gate t *. vgs) +. (c_drain t *. vds)

let pp fmt t =
  Format.fprintf fmt
    "@[<v>%s: d=%.2f nm, tox=%.1f nm, kappa=%.2f, T=%g K, EF=%g eV,@ Eg=%.3f \
     eV, CG=%.3e F/m, CD=%.3e F/m, CS=%.3e F/m@]"
    t.name (t.diameter *. 1e9)
    (t.oxide_thickness *. 1e9)
    t.dielectric t.temp t.fermi (band_gap t) (c_gate t) (c_drain t) (c_source t)
