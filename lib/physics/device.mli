(** CNFET device description: geometry, doping, electrostatic control
    parameters, and the derived per-unit-length capacitances of the
    equivalent circuit (paper fig. 1). *)

type t = private {
  name : string;
  diameter : float;  (** tube diameter, m *)
  oxide_thickness : float;  (** gate insulator thickness, m *)
  dielectric : float;  (** insulator relative permittivity *)
  temp : float;  (** temperature, K *)
  fermi : float;  (** source Fermi level, eV from the first subband edge *)
  alpha_g : float;  (** gate control parameter [C_G / C_Sigma] *)
  alpha_d : float;  (** drain control parameter [C_D / C_Sigma] *)
  subbands : int;  (** conduction subbands kept *)
}

val create :
  ?name:string ->
  ?diameter:float ->
  ?oxide_thickness:float ->
  ?dielectric:float ->
  ?temp:float ->
  ?fermi:float ->
  ?alpha_g:float ->
  ?alpha_d:float ->
  ?subbands:int ->
  unit ->
  t
(** Validated constructor.  Defaults reproduce the FETToy 2.0 device
    the paper benchmarks against (d = 1 nm, t_ox = 1.5 nm,
    kappa = 3.9, T = 300 K, E_F = -0.32 eV, alpha_G = 0.88,
    alpha_D = 0.035, one subband). *)

val default : t
(** The FETToy default device (paper figures 2-9, tables I-IV). *)

val javey : t
(** The Javey et al. 2005 device of the paper's experimental section
    (d = 1.6 nm, t_ox = 50 nm, E_F = -0.05 eV). *)

val band_gap : t -> float
(** Band gap in eV. *)

val c_gate : t -> float
(** Gate insulator capacitance per unit length (coaxial formula), F/m. *)

val c_drain : t -> float
val c_source : t -> float

val c_sigma : t -> float
(** Total terminal capacitance [C_G + C_D + C_S] (paper eq. 9). *)

val dos : t -> Dos.t
val charge_profile : ?tol:float -> t -> Charge.profile

val terminal_charge : t -> vgs:float -> vds:float -> float
(** [Q_t = C_G V_GS + C_D V_DS] (paper eq. 8, source-referenced). *)

val pp : Format.formatter -> t -> unit
