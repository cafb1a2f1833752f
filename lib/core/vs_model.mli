(** Virtual-source ballistic CNFET compact model (Lee et al.) — the
    first non-piecewise backend of the {!Device_model} registry.

    [I_DS = Q_ix0 v_x0 F_sat] with a softplus virtual-source charge,
    DIBL-shifted threshold and an empirical saturation function;
    construction is closed-form from the device geometry (no fitting).
    Reverse operation ([V_DS < 0]) is the source/drain swap
    [I(V_GS, V_DS) = -I(V_GD, -V_DS)], so the current is continuous and
    monotone in [V_DS]; p-type devices are the electron-hole mirror as
    in {!Cnt_model}. *)

open Cnt_physics

type polarity = Cnt_model.polarity =
  | N_type
  | P_type

type params = {
  vt0 : float;  (** threshold voltage at [V_DS = 0], V *)
  dibl : float;  (** drain-induced barrier lowering, V/V *)
  n_ss : float;  (** subthreshold ideality factor *)
  vxo : float;  (** virtual-source injection velocity, m/s *)
  beta : float;  (** saturation transition exponent *)
  vdsat : float;  (** saturation voltage scale, V *)
  cinv : float;  (** gate-to-channel inversion capacitance, F/m *)
}

type t

val make :
  ?polarity:polarity ->
  ?vt0:float ->
  ?dibl:float ->
  ?n_ss:float ->
  ?vxo:float ->
  ?beta:float ->
  ?vdsat:float ->
  ?cinv:float ->
  Device.t ->
  t
(** Build a model on a device.  Defaults: [vt0 = 0.3] V,
    [dibl = 0.05], [n_ss = 1.1], [vxo = 4e5] m/s, [beta = 1.8],
    [vdsat = 3 n phi_t], [cinv = Device.c_gate].  Raises
    [Invalid_argument] on non-positive [n]/[vxo]/[beta]/[vdsat]/[cinv]. *)

val device : t -> Device.t
val polarity : t -> polarity
val params : t -> params

val identity : t -> string
(** Canonical identity string ("vs|..."), hex floats; see
    {!Cnt_model.identity} for the contract. *)

val ids : t -> vgs:float -> vds:float -> float
(** Drain current (A).  Negative for p-type devices under positive
    bias, matching {!Cnt_model.ids}. *)

val small_signal : t -> vgs:float -> vds:float -> float * float * float
(** [(I_DS, gm, gds)] at a bias point, all closed-form: the current of
    {!ids} and its softplus/DIBL/saturation-function derivatives,
    carried through the source/drain swap for [V_DS < 0].  This is
    {!eval_range} on a one-row range. *)

val gm : t -> vgs:float -> vds:float -> float
(** Transconductance [dI/dV_GS] (A/V), from {!small_signal}. *)

val gds : t -> vgs:float -> vds:float -> float
(** Output conductance [dI/dV_DS] (A/V), from {!small_signal}. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val eval_range :
  t array ->
  first:int ->
  fault_i0:bool ->
  vgs:vec ->
  vds:vec ->
  i0:vec ->
  gm:vec ->
  gds:vec ->
  unit
(** The MNA range kernel: for every row [j], reads the bias point from
    slot [first + j] of [vgs]/[vds] and writes the {!small_signal}
    triple of model [j] to the same slot of [i0]/[gm]/[gds].  There is
    no per-bias plan to hoist, so a range is just its models.
    Allocates nothing per row.  [i0] is bitwise-equal to {!ids};
    [fault_i0] makes only [i0] NaN. *)
