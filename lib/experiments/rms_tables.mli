(** Tables II-IV: average RMS drain-current error of both piecewise
    models against the reference across the (V_G, T) grid, one table
    per Fermi level. *)

type cell = {
  vgs : float;
  temp : float;
  model1_error : float;  (** relative RMS error, as a fraction *)
  model2_error : float;
}

type table = {
  fermi : float;
  cells : cell list;
}

val errors_for : Workloads.models -> vgs:float -> float * float
(** [(model1_error, model2_error)] for one gate voltage. *)

val compute :
  ?tuned:bool ->
  ?temps:float list ->
  ?vgs_list:float list ->
  float ->
  table
(** Compute the table for one Fermi level (eV): the FETToy reference
    and model fits once per temperature, then one error cell per
    (V_G, T) pair, V_G-major. *)

val cell : table -> vgs:float -> temp:float -> cell option

val to_string : table -> string
(** Paper-layout rendering (percentages). *)

val to_csv : table -> string

val worst_error : table -> [ `Model1 | `Model2 ] -> float
val mean_error : table -> [ `Model1 | `Model2 ] -> float
