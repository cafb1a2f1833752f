(* Dense linear algebra: just enough for MNA circuit solves and
   least-squares fitting.  Matrices are row-major [float array array]
   wrapped in an abstract record to keep dimensions honest. *)

exception Singular of string
exception Dimension_mismatch of string

type mat = {
  rows : int;
  cols : int;
  data : float array array; (* data.(i).(j), row i column j *)
}

module Vec = struct
  type t = float array

  let make n x = Array.make n x
  let init = Array.init
  let dim = Array.length
  let copy = Array.copy

  let add a b =
    if dim a <> dim b then raise (Dimension_mismatch "Vec.add");
    Array.init (dim a) (fun i -> a.(i) +. b.(i))

  let sub a b =
    if dim a <> dim b then raise (Dimension_mismatch "Vec.sub");
    Array.init (dim a) (fun i -> a.(i) -. b.(i))

  let scale s a = Array.map (fun x -> s *. x) a

  let dot a b =
    if dim a <> dim b then raise (Dimension_mismatch "Vec.dot");
    let acc = ref 0.0 in
    for i = 0 to dim a - 1 do
      acc := !acc +. (a.(i) *. b.(i))
    done;
    !acc

  let norm2 a = sqrt (dot a a)

  let norm_inf a = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 a

  let axpy ~alpha x y =
    if dim x <> dim y then raise (Dimension_mismatch "Vec.axpy");
    for i = 0 to dim x - 1 do
      y.(i) <- y.(i) +. (alpha *. x.(i))
    done

  let pp fmt v =
    Format.fprintf fmt "[|";
    Array.iteri (fun i x -> Format.fprintf fmt "%s%g" (if i > 0 then "; " else " ") x) v;
    Format.fprintf fmt " |]"
end

module Mat = struct
  type t = mat

  let make rows cols x =
    if rows < 0 || cols < 0 then invalid_arg "Mat.make";
    { rows; cols; data = Array.init rows (fun _ -> Array.make cols x) }

  let init rows cols f =
    { rows; cols; data = Array.init rows (fun i -> Array.init cols (fun j -> f i j)) }

  let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

  let of_arrays a =
    let rows = Array.length a in
    let cols = if rows = 0 then 0 else Array.length a.(0) in
    Array.iter
      (fun r -> if Array.length r <> cols then raise (Dimension_mismatch "Mat.of_arrays"))
      a;
    { rows; cols; data = Array.map Array.copy a }

  let rows m = m.rows
  let cols m = m.cols
  let get m i j = m.data.(i).(j)
  let set m i j x = m.data.(i).(j) <- x
  let add_to m i j x = m.data.(i).(j) <- m.data.(i).(j) +. x
  let copy m = { m with data = Array.map Array.copy m.data }
  let row m i = Array.copy m.data.(i)
  let to_arrays m = Array.map Array.copy m.data

  let transpose m = init m.cols m.rows (fun i j -> m.data.(j).(i))

  let add a b =
    if a.rows <> b.rows || a.cols <> b.cols then raise (Dimension_mismatch "Mat.add");
    init a.rows a.cols (fun i j -> a.data.(i).(j) +. b.data.(i).(j))

  let sub a b =
    if a.rows <> b.rows || a.cols <> b.cols then raise (Dimension_mismatch "Mat.sub");
    init a.rows a.cols (fun i j -> a.data.(i).(j) -. b.data.(i).(j))

  let scale s a = init a.rows a.cols (fun i j -> s *. a.data.(i).(j))

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

  let norm_inf a =
    let best = ref 0.0 in
    for i = 0 to a.rows - 1 do
      let s = ref 0.0 in
      for j = 0 to a.cols - 1 do
        s := !s +. Float.abs a.data.(i).(j)
      done;
      best := Float.max !best !s
    done;
    !best

  let pp fmt m =
    Format.fprintf fmt "@[<v>";
    for i = 0 to m.rows - 1 do
      Format.fprintf fmt "[";
      for j = 0 to m.cols - 1 do
        Format.fprintf fmt "%s%10.4g" (if j > 0 then " " else "") m.data.(i).(j)
      done;
      Format.fprintf fmt "]@,"
    done;
    Format.fprintf fmt "@]"
end

(* ------------------------------------------------------------------ *)
(* LU decomposition with partial pivoting                              *)
(* ------------------------------------------------------------------ *)

type lu = {
  lu_mat : mat; (* packed L (unit diagonal, below) and U (on/above) *)
  perm : int array; (* row permutation *)
  sign : float; (* determinant sign from row swaps *)
}

(* Factor [m] in place into packed L/U form, recording the row
   permutation in [perm] (overwritten).  Returns the determinant sign. *)
let factor_in_place m perm =
  if m.rows <> m.cols then raise (Dimension_mismatch "lu_factor: square required");
  let n = m.rows in
  if Array.length perm <> n then raise (Dimension_mismatch "lu_factor: perm length");
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let sign = ref 1.0 in
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
      perm.(!pivot) <- t;
      sign := -. !sign
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
  done;
  !sign

let lu_decompose a =
  let m = Mat.copy a in
  let perm = Array.make a.rows 0 in
  let sign = factor_in_place m perm in
  { lu_mat = m; perm; sign }

let lu_solve { lu_mat; perm; _ } b =
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

let solve a b = lu_solve (lu_decompose a) b

let det a =
  match lu_decompose a with
  | exception Singular _ -> 0.0
  | f ->
      let d = ref f.sign in
      for i = 0 to f.lu_mat.rows - 1 do
        d := !d *. f.lu_mat.data.(i).(i)
      done;
      !d

let inverse a =
  let n = a.rows in
  let f = lu_decompose a in
  let inv = Mat.make n n 0.0 in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1.0 else 0.0) in
    let col = lu_solve f e in
    for i = 0 to n - 1 do
      inv.data.(i).(j) <- col.(i)
    done
  done;
  inv

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
