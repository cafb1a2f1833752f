(** AC small-signal analysis: the circuit is linearised at its DC
    operating point and one complex MNA system is solved per
    frequency.  Sources drive the system through their [?ac]
    magnitude. *)

exception Analysis_error of string

type result = {
  compiled : Mna.compiled;
  op : Dc.op_result;  (** the linearisation point *)
  freqs : float array;  (** Hz *)
  solutions : Complex.t array array;
  stats : Mna.stats;
      (** telemetry of the per-frequency complex solves with the DC
          bias solve folded in, so AC tables report the same shape as
          DC and transient ones *)
}

val decade_frequencies :
  start:float -> stop:float -> per_decade:int -> float array
(** Logarithmic frequency grid. *)

val run :
  ?gmin:float ->
  ?tol:float ->
  ?max_iter:int ->
  ?policy:Homotopy.policy ->
  Circuit.t ->
  freqs:float array ->
  result
(** The operating-point solve runs through the {!Homotopy} ladder; its
    {!Diag.Convergence_failure} carries [analysis = "ac"].  The
    per-frequency complex systems use the dense complex solver. *)

val voltage : result -> string -> Complex.t array
(** Node-voltage phasor across the sweep. *)

val vsource_current : result -> string -> Complex.t array

val magnitude_db : Complex.t array -> float array
(** [20 log10 |z|] per point. *)

val corner_frequency : result -> string -> float option
(** The -3 dB frequency of a node relative to the first sweep point,
    log-interpolated; [None] if the response never drops 3 dB. *)
