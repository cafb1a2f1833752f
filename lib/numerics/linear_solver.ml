(* The MNA linear solver: a CSR {!Sparse} matrix with a frozen pattern
   and a reusable Gilbert-Peierls LU workspace, under a fill-reducing
   symmetric permutation (greedy minimum degree, [Sparse.amd_order])
   chosen once at create time.  The pattern is stored permuted, slot
   handles resolve through the permutation, and solves gather the
   right-hand side and un-permute the solution through it — so stamp
   programs, residuals and singular-pivot reports all speak the
   caller's original unknown numbering.  A Newton loop refills the
   values in place and allocates only the solution vector. *)

exception Singular of int

type t = {
  m : Sparse.t; (* the pattern, permuted *)
  lu : Sparse.lu;
  perm : int array; (* position -> original unknown *)
  pinv : int array; (* original unknown -> position *)
  xp : float array; (* permuted-vector scratch *)
  bp : float array;
  fill : int; (* symbolic fill of the applied order *)
}

let create n rows cols =
  let perm, fill = Sparse.amd_order ~n rows cols in
  let pinv = Array.make n 0 in
  Array.iteri (fun k v -> pinv.(v) <- k) perm;
  let m, slots = Sparse.of_pattern ~pinv n rows cols in
  ( {
      m;
      lu = Sparse.lu_create ~fill m;
      perm;
      pinv;
      xp = Array.make n 0.0;
      bp = Array.make n 0.0;
      fill;
    },
    slots )

let clone t =
  let m = Sparse.copy_pattern t.m in
  let n = Sparse.dim m in
  {
    t with
    m;
    lu = Sparse.lu_create ~fill:t.fill m;
    xp = Array.make n 0.0;
    bp = Array.make n 0.0;
  }

let nnz t = Sparse.nnz t.m
let fill t = t.fill
let slot t i j = Sparse.slot t.m t.pinv.(i) t.pinv.(j)
let clear t = Sparse.clear t.m
let add_slot t s v = Sparse.add_slot t.m s v
let values t = Sparse.values t.m

let gather t x b =
  for k = 0 to Array.length t.perm - 1 do
    t.xp.(k) <- x.(t.perm.(k));
    t.bp.(k) <- b.(t.perm.(k))
  done

(* The permuted system's residual rows are a permutation of the
   original's, so the inf-norm is the same quantity (summation order
   within a row follows the permuted columns). *)
let residual t x b =
  gather t x b;
  Sparse.residual_inf t.m t.xp t.bp

let residual_argmax t x b =
  gather t x b;
  let ax = Sparse.mul_vec t.m t.xp in
  let worst = ref 0.0 and row = ref 0 in
  Array.iteri
    (fun i v ->
      let r = Float.abs (v -. t.bp.(i)) in
      (* the first NaN row wins and stays: plain [>] is false for NaN *)
      if (not (Float.is_nan !worst)) && (r > !worst || Float.is_nan r)
      then begin
        worst := r;
        row := i
      end)
    ax;
  (t.perm.(!row), !worst)

let solve t b =
  for k = 0 to Array.length t.perm - 1 do
    t.bp.(k) <- b.(t.perm.(k))
  done;
  (try Sparse.refactor t.lu t.m
   with Sparse.Singular k -> raise (Singular t.perm.(k)));
  Sparse.lu_solve ~pinv:t.pinv t.lu t.bp
