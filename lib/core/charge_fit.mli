(** Fitting of the piecewise non-linear mobile-charge approximation
    (paper section IV).

    A {!spec} names the boundary offsets (relative to [E_F/q]) and the
    degree of each non-zero piece; {!fit} solves one equality-
    constrained least-squares problem producing a C1 piecewise
    polynomial that is exactly zero above the last boundary.
    Boundary offsets can be refined numerically — the paper's own
    methodology — per condition ({!optimise_boundaries}). *)

open Cnt_physics

type weighting =
  | Uniform  (** plain least squares on the charge values *)
  | Relative of float
      (** weight [1/(|Q| + floor)^2] with [floor] this fraction of the
          curve maximum — approximates minimising relative deviation,
          keeping the subthreshold tail accurate *)

type tail =
  | Zero  (** final region is exactly zero — the paper's models *)
  | Asymptotic
      (** final region is the true limit [-q N0/2]; still constant, so
          the closed-form solve is preserved.  Matters at [E_F = 0]. *)

type spec = private {
  offsets : float array;  (** boundary offsets from [E_F/q], ascending *)
  degrees : int array;  (** degree (1..3) of each non-zero piece *)
  window : float;  (** fitted span below the first boundary, V *)
  samples_per_piece : int;
  weighting : weighting;
  tail : tail;
}

val spec :
  ?window:float ->
  ?samples_per_piece:int ->
  ?weighting:weighting ->
  ?tail:tail ->
  offsets:float array ->
  degrees:int array ->
  unit ->
  spec
(** Validated constructor.  Degrees are restricted to 1..3 so the
    self-consistent equation stays solvable in closed form. *)

val with_offsets : spec -> float array -> spec
(** Copy of a spec with different boundary offsets. *)

val model1_paper_spec : spec
(** Model 1 with the boundaries printed in the paper:
    linear/quadratic/zero at [E_F/q -/+ 0.08 V]. *)

val model2_paper_spec : spec
(** Model 2 with the boundaries printed in the paper:
    linear/quadratic/cubic/zero at [E_F/q - 0.28 / - 0.03 / + 0.12 V]. *)

val model1_spec : spec
(** Model 1 with boundaries re-optimised (paper methodology) against
    this library's exactly-integrated reference over the paper's
    (T, E_F) condition grid. *)

val model2_spec : spec
(** Model 2 with re-optimised boundaries; see {!model1_spec}. *)

type fit_result = {
  approx : Piecewise.t;  (** fitted [Q_S(V_SC)] in C/m *)
  charge_rms : float;  (** relative RMS error over the fit window *)
  sample_xs : float array;
  sample_ys : float array;
}

type theory_curve = {
  t_xs : float array;  (** ascending V_SC samples *)
  t_ys : float array;  (** theoretical Q_S at each sample, C/m *)
}

val sample_theory :
  ?points:int -> Charge.profile -> lo:float -> hi:float -> theory_curve
(** Sample the theoretical charge curve once (one quadrature per
    point); reusable across many candidate fits. *)

val fit : ?theory:theory_curve -> Charge.profile -> spec -> fit_result
(** Fit the charge curve of the given device profile, sampling the
    theory on demand unless a precomputed [theory] curve is supplied. *)

val rms_on_curve : Piecewise.t -> theory_curve -> float
(** Relative RMS deviation of an approximation over a theory curve's
    full range (zero region included). *)

val charge_rms_over :
  ?points:int -> Charge.profile -> Piecewise.t -> lo:float -> hi:float -> float
(** Relative RMS deviation from freshly sampled theory over [[lo, hi]]. *)

val optimise_boundaries :
  ?min_gap:float ->
  ?max_iter:int ->
  Charge.profile ->
  spec ->
  spec * fit_result * float
(** Refine the boundary offsets by Nelder-Mead on the charge RMS for
    one operating condition.  Returns the refined spec, its fit, and
    the achieved RMS. *)
