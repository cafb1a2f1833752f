(** Dense univariate polynomials with real coefficients and closed-form
    root extraction for degrees up to three.

    Coefficients are stored lowest-degree first: the array
    [[| c0; c1; c2 |]] denotes [c0 + c1*x + c2*x^2]. *)

type t = float array

val zero : t
val one : t

val of_coeffs : float array -> t
(** Copy an ascending-degree coefficient array into a polynomial. *)

val coeffs : t -> float array
(** Copy out the coefficient array. *)

val normalise : t -> t
(** Trim trailing zero coefficients. *)

val degree : t -> int
(** Degree after normalisation; the zero polynomial has degree [-1]. *)

val is_zero : t -> bool

val constant : float -> t
val monomial : int -> t

val coeff : t -> int -> float
(** Coefficient of [x^i]; zero beyond the stored length. *)

val eval : t -> float -> float
(** Horner evaluation. *)

val eval_with_derivative : t -> float -> float * float
(** [(p x, p' x)] in one Horner pass. *)

val add : t -> t -> t
val neg : t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val mul : t -> t -> t
val derivative : t -> t

val antiderivative : ?constant_term:float -> t -> t
(** Antiderivative; the integration constant defaults to 0. *)

val compose : t -> t -> t
(** [compose p q] is [x -> p (q x)]. *)

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
val pp : Format.formatter -> t -> unit

val roots_linear : float -> float -> float list
(** Real roots of [a*x + b]. *)

val roots_quadratic : float -> float -> float -> float list
(** Real roots of [a*x^2 + b*x + c], ascending, computed with the
    cancellation-free quadratic formula. *)

val roots_cubic : float -> float -> float -> float -> float list
(** Real roots of [a*x^3 + b*x^2 + c*x + d], ascending (Cardano;
    trigonometric branch when all three roots are real). *)

val real_roots_closed_form : t -> float list
(** Closed-form real roots for polynomials of degree at most 3,
    Newton-polished.  Raises [Invalid_argument] on higher degrees. *)

val real_roots_trimmed : t -> float list
(** [real_roots_closed_form] for a polynomial that is already
    normalised (no trailing zero coefficient): skips the defensive
    re-normalise copy but runs the identical floating-point program,
    so on trimmed input the two agree bitwise.  Hot paths that build
    their coefficient arrays trimmed call this directly. *)

val durand_kerner : ?tol:float -> ?max_iter:int -> t -> Complex.t array
(** All complex roots by Durand-Kerner simultaneous iteration. *)

val real_roots : ?imag_tol:float -> t -> float list
(** Real roots of a polynomial of any degree: closed form when degree
    is at most 3, otherwise Durand-Kerner filtered to real values. *)
