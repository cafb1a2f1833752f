(** Sampling grids and sorted-array utilities. *)

val linspace : float -> float -> int -> float array
(** [linspace a b n] is [n] evenly spaced points from [a] to [b]
    inclusive.  [n = 1] yields [[|a|]].  Raises [Invalid_argument] when
    [n <= 0]. *)

val logspace : float -> float -> int -> float array
(** [logspace a b n] is [n] logarithmically spaced points from [a] to
    [b]; both endpoints must be positive. *)

val map2 : (float -> float -> 'a) -> float array -> float array -> 'a array
(** Elementwise map over two arrays of equal length. *)

val bracket : float array -> float -> int
(** [bracket xs x] is the index of the last element of the ascending
    sorted array [xs] that is [<= x], or [-1] when [x < xs.(0)].
    Values beyond the last element return the last index. *)

val is_sorted : float array -> bool
(** Whether the array is sorted in non-decreasing order. *)
