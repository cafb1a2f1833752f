(** Dense univariate polynomials with real coefficients.

    Coefficients are stored lowest-degree first: the array
    [[| c0; c1; c2 |]] denotes [c0 + c1*x + c2*x^2]. *)

type t = float array

val zero : t

val of_coeffs : float array -> t
(** Copy an ascending-degree coefficient array into a polynomial. *)

val coeffs : t -> float array
(** Copy out the coefficient array. *)

val normalise : t -> t
(** Trim trailing zero coefficients. *)

val degree : t -> int
(** Degree after normalisation; the zero polynomial has degree [-1]. *)

val constant : float -> t

val eval : t -> float -> float
(** Horner evaluation. *)

val eval_with_derivative : t -> float -> float * float
(** [(p x, p' x)] in one Horner pass. *)

val add : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val derivative : t -> t

val shift : t -> float -> t
(** [shift p a] is [x -> p (x + a)]. *)

val shift_into : t -> float -> float array -> float array -> int
(** [shift_into p a acc scr] writes the coefficients of [shift p a]
    into the first cells of [acc] and returns how many.  It replays
    {!shift}'s floating-point program exactly, so the values written
    are bitwise the coefficients {!shift} returns — the allocation-free
    form solver inner loops use.  Both scratch arrays need length at
    least [Array.length p]; [scr] is clobbered. *)

val equal : ?tol:float -> t -> t -> bool
(** Coefficient-wise equality with optional tolerance. *)

val to_string : ?var:string -> t -> string
