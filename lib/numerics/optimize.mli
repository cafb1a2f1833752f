(** Derivative-free minimisation. *)

val nelder_mead :
  ?tol:float ->
  ?max_iter:int ->
  ?initial_step:float ->
  (float array -> float) ->
  float array ->
  float array * float
(** [nelder_mead f x0] minimises a multivariate function starting from
    [x0] by the downhill-simplex method; returns the best vertex and
    its value.  [initial_step] scales the initial simplex (relative to
    each coordinate, absolute for zero coordinates). *)
