(** Sparse linear algebra for circuit-sized systems: a pattern-frozen
    compressed-sparse-row matrix refilled in place between solves, and a
    left-looking (Gilbert-Peierls) sparse LU with partial pivoting whose
    workspace is reused across refactorisations.

    The intended life cycle mirrors a Newton loop:

    {[
      (* symbolic phase: every (row, col) that will ever be written;
         duplicates are fine *)
      let rows = [| i; ... |] and cols = [| j; ... |] in
      let m, slots = Sparse.of_pattern n rows cols in
      (* sized from the fill estimate of the order m is stored in
         (Linear_solver stores the pattern under amd_order's perm) *)
      let lu = Sparse.lu_create ~fill m in
      (* numeric phase, once per iteration, no allocation: *)
      Sparse.clear m;
      Sparse.add_slot m slots.(k) v;
      ...
      Sparse.refactor lu m;
      let x = Sparse.lu_solve lu rhs in
      ...
    ]} *)

exception Singular of int
(** Raised by {!refactor}: no nonzero pivot exists at this column of
    the factorisation (equivalently, this row of the matrix). *)

type t
(** A square sparse matrix with a frozen sparsity pattern. *)

val of_pattern :
  ?pinv:int array -> int -> int array -> int array -> t * int array
(** [of_pattern n rows cols] freezes the locations
    [(rows.(k), cols.(k))] of an [n x n] matrix into CSR form with all
    values zero, and returns it with [slots]: [slots.(k)] is the value
    slot of location [k], as {!slot} would find it.  Duplicates are
    collapsed (each copy gets the same slot) and columns are sorted
    within each row.  With [pinv] each location [(i, j)] is stored at
    [(pinv.(i), pinv.(j))]: the matrix under a symmetric permutation.
    Raises [Invalid_argument] on a negative [n], arrays of different
    lengths or an out-of-range location. *)

val dim : t -> int
val nnz : t -> int

val copy_pattern : t -> t
(** A matrix with zeroed values over the same frozen pattern; the
    pattern arrays are shared, so slots resolved on either matrix are
    valid on both. *)

val slot : t -> int -> int -> int
(** Stable index of a pattern location in the value array (a binary
    search within the row); the handle used for in-place refill.
    Raises [Invalid_argument] when [(i, j)] is not part of the
    pattern. *)

val clear : t -> unit
(** Zero every stored value, keeping the pattern. *)

val add_slot : t -> int -> float -> unit
(** [add_slot m s v] accumulates [v] into the entry with handle [s]. *)

val values : t -> float array
(** The value array itself, indexed by slot: adding into cell [s] is
    {!add_slot} [s] without the call, for refill loops that keep their
    floats unboxed. *)

val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] accumulates into location [(i, j)]; convenience
    wrapper over {!slot} and {!add_slot}. *)

val get : t -> int -> int -> float
(** Entry value; [0.] for locations outside the pattern. *)

val mul_vec : t -> float array -> float array
(** Sparse matrix-vector product [m x]. *)

val residual_inf : t -> float array -> float array -> float
(** [residual_inf m x b] is [||m x - b||_inf], computed without
    allocating. *)

type lu
(** Reusable factorisation workspace: numeric L/U factors plus the
    scratch arrays of the left-looking factorisation.  Allocated once
    per structure; {!refactor} grows its fill arrays only when needed
    and otherwise runs allocation-free. *)

val lu_create : ?fill:int -> t -> lu
(** A workspace sized for factors with [fill] off-diagonal entries each
    (default: the pattern's [nnz]), such as the symbolic fill
    {!amd_order} reports for the order the matrix is stored in.  An
    estimate too small only costs a grow inside {!refactor}. *)

val refactor : lu -> t -> unit
(** Factor the matrix's current values with partial pivoting,
    overwriting the workspace's previous factors.  Raises {!Singular}
    with the failing column on a structurally or numerically singular
    matrix. *)

val amd_order : n:int -> int array -> int array -> int array * int
(** [amd_order ~n rows cols] is a greedy minimum-degree ordering of the
    symmetrised graph of the locations [(rows.(k), cols.(k))]
    (the exact-degree special case of approximate minimum degree),
    with deterministic lowest-index tie-breaking; each pivot comes from
    a lazy-deletion binary heap, O((n + fill) log n).  Returns
    [(perm, fill)]: [perm.(k)] is the original index eliminated at
    position [k], and [fill] is the symbolic factorisation fill of
    that order — the sum of neighbourhood sizes at elimination time,
    an nnz(L) proxy. *)

val lu_solve : ?pinv:int array -> lu -> float array -> float array
(** Solve [A x = b] using the factors of the last {!refactor}.  With
    [pinv] the result is renumbered on the way out, [x.(i)] being the
    solution entry at index [pinv.(i)]: a caller that factored a
    permuted matrix gets its own numbering back in the one result
    array. *)

val solve : t -> float array -> float array
(** One-shot solve with a throwaway workspace. *)
