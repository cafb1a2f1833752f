(** Circuit-ready ballistic CNFET compact model — the paper's
    contribution.  Construction fits the piecewise charge curve once;
    every subsequent bias-point evaluation uses only closed-form
    algebra (no integration, no iteration). *)

open Cnt_physics

type polarity =
  | N_type
  | P_type  (** electron-hole mirror of the n-type device *)

type t

val make :
  ?polarity:polarity ->
  ?spec:Charge_fit.spec ->
  ?optimise:bool ->
  ?theory:Charge_fit.theory_curve ->
  Device.t ->
  t
(** Fit a model to a device.  Default spec is the paper's Model 2;
    [~optimise:true] additionally refines the boundary offsets for the
    device's own operating condition (the paper's numerical boundary
    placement; adds a few hundred ms of one-off fitting work).  Pass a
    precomputed [theory] curve to skip resampling the charge
    integrals. *)

val of_parts :
  ?polarity:polarity ->
  ?charge_rms:float ->
  device:Device.t ->
  approx:Piecewise.t ->
  unit ->
  t
(** Rebuild a model from a previously fitted charge approximation
    without refitting (the {!Model_io} deserialisation path). *)

val model1 : ?polarity:polarity -> ?optimise:bool -> ?device:Device.t -> unit -> t
(** The paper's Model 1 (linear/quadratic/zero pieces). *)

val model2 : ?polarity:polarity -> ?optimise:bool -> ?device:Device.t -> unit -> t
(** The paper's Model 2 (linear/quadratic/cubic/zero pieces). *)

val device : t -> Device.t
val polarity : t -> polarity
val spec : t -> Charge_fit.spec

val identity : t -> string
(** Canonical identity string: polarity, full device parameter set and
    the fitted boundary offsets/degrees, floats in hex.  Two models
    with the same identity are interchangeable; anything keyed on a
    model (manifests, for one) must use it. *)

val charge_approx : t -> Piecewise.t
(** The fitted [Q_S(V_SC)] curve. *)

val charge_rms : t -> float
(** Relative RMS error of the charge fit over its window. *)

val solver : t -> Scv_solver.t

val solve_vsc : t -> vgs:float -> vds:float -> float
(** Self-consistent voltage at a bias point, in closed form. *)

val solve_stats : t -> vgs:float -> vds:float -> Scv_solver.stats

val ids : t -> vgs:float -> vds:float -> float
(** Drain current (A) at a bias point (paper eq. 14).  Negative for
    p-type devices under positive bias. *)

val charges : t -> vgs:float -> vds:float -> float * float * float
(** [(v_sc, q_s, q_d)] at a bias point; charges in C/m. *)

(** {1 Batched kernels}

    Both kernels evaluate through {!Scv_solver} plans driven by their
    unboxed [io] cells, so once their storage exists no bias point
    allocates.  Every value is {e bitwise-equal} to the corresponding
    scalar call (pinned by [test/test_property.ml] and
    [test/test_models.ml]). *)

val eval_batch : t -> vgs:float array -> vds:float array -> float array array
(** Drain currents for the bias product grid, one row per gate
    voltage: [(eval_batch t ~vgs ~vds).(i).(j)] is
    [ids t ~vgs:vgs.(i) ~vds:vds.(j)], bitwise.  One solver plan serves
    the whole call, retargeted per drain column. *)

val output_family :
  t -> vgs_list:float list -> vds_points:float array -> (float * float array) list
(** Output characteristics: the rows of {!eval_batch}, each paired
    with its gate voltage. *)

val transfer : t -> vds:float -> vgs_points:float array -> float array
(** Transfer characteristic, evaluated through {!eval_batch}. *)

val small_signal : t -> vgs:float -> vds:float -> float * float * float
(** [(I_DS, gm, gds)] at a bias point from one closed-form solve: the
    current of {!ids} and its derivatives [dI/dV_GS], [dI/dV_DS] by
    implicit differentiation of eq. (7) at the solved self-consistent
    voltage,
    [gm = A C_G] and [gds = A (C_D - Q_S'(V_SC + V_DS)) + s sigma(eta_D)/kT]
    with [A = s (sigma(eta_S) - sigma(eta_D)) / (kT D)],
    [D = C_Sigma - Q_S'(V_SC) - Q_S'(V_SC + V_DS) > 0], [sigma] the
    logistic [dF_0/deta] and [s] the current prefactor.  This is
    {!eval_range} on a one-row range, so it is bitwise-equal to the
    assembly's values. *)

val gm : t -> vgs:float -> vds:float -> float
(** Transconductance [dI/dV_GS] (A/V), from {!small_signal}. *)

val gds : t -> vgs:float -> vds:float -> float
(** Output conductance [dI/dV_DS] (A/V), from {!small_signal}. *)

type vec = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type range
(** A run of device-table rows: one model per row, each with its own
    solver plan as scratch.  A range belongs to one assembly workspace
    and must not be shared between domains evaluating concurrently. *)

val range : t array -> range
(** [range models]: row [j] of the run is evaluated by [models.(j)]. *)

val eval_range :
  range ->
  first:int ->
  fault_i0:bool ->
  vgs:vec ->
  vds:vec ->
  i0:vec ->
  gm:vec ->
  gds:vec ->
  unit
(** The MNA range kernel: for every row [j] of the range, reads the
    bias point from slot [first + j] of [vgs]/[vds] and writes the
    {!small_signal} triple to the same slot of [i0]/[gm]/[gds], from
    one bias-point solve on the row's plan (retargeted in place, a
    no-op when the row's drain bias is unchanged).  Allocates nothing
    per row.  [i0] is bitwise-equal to {!ids}.  [fault_i0] is the
    [Fault.Nan_eval] site: every bias point is evaluated as usual and
    only [i0] becomes NaN. *)

val pp : Format.formatter -> t -> unit
