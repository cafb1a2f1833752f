(** Dense linear algebra: vectors, matrices, LU with partial pivoting,
    Householder least squares.  Sized for circuit matrices (tens to a
    few hundreds of unknowns). *)

exception Singular of string
exception Dimension_mismatch of string

type mat

(** Plain [float array] vectors. *)
module Vec : sig
  type t = float array

  val make : int -> float -> t
  val init : int -> (int -> float) -> t
  val dim : t -> int
  val copy : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : float -> t -> t
  val dot : t -> t -> float
  val norm2 : t -> float
  val norm_inf : t -> float

  val axpy : alpha:float -> t -> t -> unit
  (** [axpy ~alpha x y] updates [y <- y + alpha*x] in place. *)

  val pp : Format.formatter -> t -> unit
end

(** Row-major dense matrices. *)
module Mat : sig
  type t = mat

  val make : int -> int -> float -> t
  val init : int -> int -> (int -> int -> float) -> t
  val identity : int -> t
  val of_arrays : float array array -> t
  val rows : t -> int
  val cols : t -> int
  val get : t -> int -> int -> float
  val set : t -> int -> int -> float -> unit

  val add_to : t -> int -> int -> float -> unit
  (** [add_to m i j x] accumulates [x] into entry [(i, j)]; the MNA
      stamping primitive. *)

  val copy : t -> t
  val row : t -> int -> float array
  val to_arrays : t -> float array array
  val transpose : t -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : float -> t -> t
  val mul : t -> t -> t
  val mul_vec : t -> Vec.t -> Vec.t
  val norm_inf : t -> float
  val pp : Format.formatter -> t -> unit
end

type lu
(** Packed LU factorisation with its row permutation. *)

val lu_decompose : mat -> lu
(** LU with partial pivoting.  Raises {!Singular} on structurally or
    numerically singular input. *)

val lu_solve : lu -> Vec.t -> Vec.t
(** Solve using a precomputed factorisation (reusable across multiple
    right-hand sides, e.g. Newton iterations with a frozen Jacobian). *)

val solve : mat -> Vec.t -> Vec.t
(** One-shot [A x = b] solve. *)

val det : mat -> float
(** Determinant via LU; [0.] for singular matrices. *)

val inverse : mat -> mat
(** Matrix inverse via LU; raises {!Singular} when not invertible. *)

val qr_least_squares : mat -> Vec.t -> Vec.t
(** [qr_least_squares a b] minimises [||a x - b||_2] by Householder QR
    for a full-column-rank [a] with at least as many rows as columns. *)
