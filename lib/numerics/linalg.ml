(* Dense linear algebra for the constrained least-squares charge fits:
   Householder QR plus the few matrix and vector operations the fit
   builds its reduced problem with.  [solve] (LU with partial pivoting)
   is the dense reference the sparse MNA solver is tested against.
   Matrices are row-major [float array array] wrapped in an abstract
   record to keep dimensions honest. *)

exception Singular of string
exception Dimension_mismatch of string

type mat = {
  rows : int;
  cols : int;
  data : float array array; (* data.(i).(j), row i column j *)
}

module Vec = struct
  type t = float array

  let add a b =
    if Array.length a <> Array.length b then raise (Dimension_mismatch "Vec.add");
    Array.init (Array.length a) (fun i -> a.(i) +. b.(i))

  let sub a b =
    if Array.length a <> Array.length b then raise (Dimension_mismatch "Vec.sub");
    Array.init (Array.length a) (fun i -> a.(i) -. b.(i))
end

module Mat = struct
  type t = mat

  let make rows cols x =
    if rows < 0 || cols < 0 then invalid_arg "Mat.make";
    { rows; cols; data = Array.init rows (fun _ -> Array.make cols x) }

  let init rows cols f =
    { rows; cols; data = Array.init rows (fun i -> Array.init cols (fun j -> f i j)) }

  let of_arrays a =
    let rows = Array.length a in
    let cols = if rows = 0 then 0 else Array.length a.(0) in
    Array.iter
      (fun r -> if Array.length r <> cols then raise (Dimension_mismatch "Mat.of_arrays"))
      a;
    { rows; cols; data = Array.map Array.copy a }

  let rows m = m.rows
  let cols m = m.cols
  let set m i j x = m.data.(i).(j) <- x
  let copy m = { m with data = Array.map Array.copy m.data }
  let row m i = Array.copy m.data.(i)

  let mul a b =
    if a.cols <> b.rows then raise (Dimension_mismatch "Mat.mul");
    let c = make a.rows b.cols 0.0 in
    for i = 0 to a.rows - 1 do
      for k = 0 to a.cols - 1 do
        let aik = a.data.(i).(k) in
        if aik <> 0.0 then
          for j = 0 to b.cols - 1 do
            c.data.(i).(j) <- c.data.(i).(j) +. (aik *. b.data.(k).(j))
          done
      done
    done;
    c

  let mul_vec a x =
    if a.cols <> Array.length x then raise (Dimension_mismatch "Mat.mul_vec");
    Array.init a.rows (fun i ->
        let acc = ref 0.0 in
        for j = 0 to a.cols - 1 do
          acc := !acc +. (a.data.(i).(j) *. x.(j))
        done;
        !acc)
end

(* ------------------------------------------------------------------ *)
(* LU decomposition with partial pivoting                              *)
(* ------------------------------------------------------------------ *)

(* Factor [m] in place into packed L (unit diagonal, below) and U
   (on/above) form, recording the row permutation in [perm]
   (overwritten). *)
let factor_in_place m perm =
  if m.rows <> m.cols then raise (Dimension_mismatch "lu_factor: square required");
  let n = m.rows in
  if Array.length perm <> n then raise (Dimension_mismatch "lu_factor: perm length");
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* find pivot *)
    let pivot = ref k in
    let best = ref (Float.abs m.data.(k).(k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs m.data.(i).(k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best = 0.0 then
      raise (Singular (Printf.sprintf "lu_decompose: zero pivot at column %d" k));
    if !pivot <> k then begin
      let tmp = m.data.(k) in
      m.data.(k) <- m.data.(!pivot);
      m.data.(!pivot) <- tmp;
      let t = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- t
    end;
    let pivval = m.data.(k).(k) in
    for i = k + 1 to n - 1 do
      let factor = m.data.(i).(k) /. pivval in
      m.data.(i).(k) <- factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          m.data.(i).(j) <- m.data.(i).(j) -. (factor *. m.data.(k).(j))
        done
    done
  done

(* [a x = b] by LU with partial pivoting, then forward and back
   substitution. *)
let solve a b =
  let lu_mat = Mat.copy a in
  let perm = Array.make a.rows 0 in
  factor_in_place lu_mat perm;
  let n = lu_mat.rows in
  if Array.length b <> n then raise (Dimension_mismatch "lu_solve");
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* forward substitution with unit-diagonal L *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu_mat.data.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* back substitution with U *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (lu_mat.data.(i).(j) *. x.(j))
    done;
    x.(i) <- !acc /. lu_mat.data.(i).(i)
  done;
  x

(* ------------------------------------------------------------------ *)
(* QR decomposition (Householder) and least squares                    *)
(* ------------------------------------------------------------------ *)

(* Householder QR applied in place to solve min ||A x - b||_2 for a
   full-column-rank A with rows >= cols.  Returns x of length cols. *)
let qr_least_squares a b =
  let m = a.rows and n = a.cols in
  if m < n then raise (Dimension_mismatch "qr_least_squares: rows < cols");
  if Array.length b <> m then raise (Dimension_mismatch "qr_least_squares: rhs");
  let r = Mat.copy a in
  let y = Array.copy b in
  for k = 0 to n - 1 do
    (* build Householder vector for column k *)
    let norm = ref 0.0 in
    for i = k to m - 1 do
      norm := !norm +. (r.data.(i).(k) *. r.data.(i).(k))
    done;
    let norm = sqrt !norm in
    if norm = 0.0 then
      raise (Singular (Printf.sprintf "qr_least_squares: rank deficient at col %d" k));
    let alpha = if r.data.(k).(k) > 0.0 then -.norm else norm in
    let v = Array.make m 0.0 in
    v.(k) <- r.data.(k).(k) -. alpha;
    for i = k + 1 to m - 1 do
      v.(i) <- r.data.(i).(k)
    done;
    let vtv = ref 0.0 in
    for i = k to m - 1 do
      vtv := !vtv +. (v.(i) *. v.(i))
    done;
    if !vtv > 0.0 then begin
      let beta = 2.0 /. !vtv in
      (* apply H = I - beta v v^T to R columns k..n-1 *)
      for j = k to n - 1 do
        let dot = ref 0.0 in
        for i = k to m - 1 do
          dot := !dot +. (v.(i) *. r.data.(i).(j))
        done;
        let s = beta *. !dot in
        for i = k to m - 1 do
          r.data.(i).(j) <- r.data.(i).(j) -. (s *. v.(i))
        done
      done;
      (* apply to rhs *)
      let dot = ref 0.0 in
      for i = k to m - 1 do
        dot := !dot +. (v.(i) *. y.(i))
      done;
      let s = beta *. !dot in
      for i = k to m - 1 do
        y.(i) <- y.(i) -. (s *. v.(i))
      done
    end
  done;
  (* back substitution on the upper-triangular n x n block *)
  let x = Array.make n 0.0 in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (r.data.(i).(j) *. x.(j))
    done;
    if r.data.(i).(i) = 0.0 then raise (Singular "qr_least_squares: zero diagonal");
    x.(i) <- !acc /. r.data.(i).(i)
  done;
  x
