(** Logic-gate characterisation: propagation delays, transition times
    and switching energy under a full-swing pulse — the circuit-level
    testing the paper names as the model's purpose. *)

exception Characterisation_error of string

type timing = {
  tphl : float;  (** input-rise to output-fall delay, s *)
  tplh : float;  (** input-fall to output-rise delay, s *)
  t_fall : float;  (** output 90 to 10 percent transition time, s *)
  t_rise : float;  (** output 10 to 90 percent transition time, s *)
  energy : float;  (** supply energy over the two transitions, J *)
  result : Transient.result;  (** the underlying waveforms *)
}

val inverting_cell :
  ?vdd:float ->
  ?t_edge:float ->
  ?width:float ->
  ?edge_time:float ->
  ?tstep:float ->
  ?policy:Homotopy.policy ->
  vdd_name:string ->
  build:(input:string -> output:string -> Circuit.element list) ->
  unit ->
  timing
(** Drive an inverting cell (built by [build] between the given input
    and output nodes) with one full pulse and extract its timing and
    energy.  [policy] is the convergence-ladder policy handed to
    {!Transient.run}.  Raises {!Characterisation_error} if the output
    never switches and {!Diag.Convergence_failure} if the transient
    cannot converge. *)

val to_string : timing -> string
