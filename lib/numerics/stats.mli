(** Summary statistics and the error metrics used by the paper's
    accuracy tables. *)

exception Empty of string

val mean : float array -> float
val variance : float array -> float
val stddev : float array -> float

val rms : float array -> float
(** Root mean square of the values. *)

val max_abs : float array -> float
val minimum : float array -> float
val maximum : float array -> float

val rms_error : float array -> float array -> float
(** RMS of pointwise differences (reference first). *)

val relative_rms_error : float array -> float array -> float
(** The paper's "average RMS error": RMS of the difference curve
    normalised by the RMS of the reference curve, as a fraction. *)

val percentile : float array -> float -> float
(** Linear-interpolated percentile, [p] in [[0, 100]]. *)

val median : float array -> float
