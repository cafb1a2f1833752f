(** One-dimensional numerical integration. *)

val adaptive_simpson :
  ?tol:float -> ?max_depth:int -> (float -> float) -> float -> float -> float
(** [adaptive_simpson f a b] integrates [f] over [[a, b]] by adaptive
    Simpson with Richardson error control to absolute tolerance [tol]
    (default 1e-12); recursion depth is capped at [max_depth] (default
    40). *)
