(* Equality-constrained linear least squares, the form the piecewise
   charge-curve fits are built on.

   The constrained problem is
       minimise ||A c - y||_2   subject to   C c = d
   solved by eliminating the constraints: with C = [C1 C2] split into a
   square invertible block C1 (pivoted) and the rest, the feasible set
   is parameterised by the free coefficients and the reduced problem is
   solved by QR. *)

exception Bad_fit of string

(* Solve min ||A c - y|| s.t. C c = d.

   Strategy: find a particular solution c0 of the (assumed consistent,
   full-row-rank) constraint system by pivoted elimination, and an
   explicit basis N for its null space; substitute c = c0 + N t and
   solve the reduced least squares for t. *)
let constrained_least_squares ~design:a ~rhs:y ~constraints:c ~targets:d =
  let m = Linalg.Mat.rows c and n = Linalg.Mat.cols c in
  if Linalg.Mat.cols a <> n then
    raise (Bad_fit "constrained_least_squares: design/constraint width mismatch");
  if Array.length d <> m then
    raise (Bad_fit "constrained_least_squares: constraint rhs length");
  if m > n then
    raise (Bad_fit "constrained_least_squares: more constraints than unknowns");
  if m = 0 then Linalg.qr_least_squares a y
  else begin
    (* Gauss-Jordan with column pivoting on the augmented [C | d]. *)
    let work = Array.init m (fun i -> Array.append (Linalg.Mat.row c i) [| d.(i) |]) in
    let pivot_cols = Array.make m (-1) in
    for k = 0 to m - 1 do
      (* choose pivot: largest |entry| over remaining rows x all columns
         not yet used as pivots *)
      let best = ref 0.0 and bi = ref (-1) and bj = ref (-1) in
      for i = k to m - 1 do
        for j = 0 to n - 1 do
          if (not (Array.exists (fun p -> p = j) pivot_cols))
             && Float.abs work.(i).(j) > !best
          then begin
            best := Float.abs work.(i).(j);
            bi := i;
            bj := j
          end
        done
      done;
      if !best < 1e-12 then
        raise (Bad_fit "constrained_least_squares: rank-deficient constraints");
      (* swap rows k and bi *)
      let tmp = work.(k) in
      work.(k) <- work.(!bi);
      work.(!bi) <- tmp;
      pivot_cols.(k) <- !bj;
      (* normalise pivot row *)
      let pv = work.(k).(!bj) in
      for j = 0 to n do
        work.(k).(j) <- work.(k).(j) /. pv
      done;
      (* eliminate column bj from every other row *)
      for i = 0 to m - 1 do
        if i <> k && work.(i).(!bj) <> 0.0 then begin
          let factor = work.(i).(!bj) in
          for j = 0 to n do
            work.(i).(j) <- work.(i).(j) -. (factor *. work.(k).(j))
          done
        end
      done
    done;
    let is_pivot = Array.make n false in
    Array.iter (fun j -> is_pivot.(j) <- true) pivot_cols;
    let free_cols =
      List.filter (fun j -> not is_pivot.(j)) (List.init n (fun j -> j))
      |> Array.of_list
    in
    let nf = Array.length free_cols in
    (* particular solution: free coefficients zero, pivots from rhs *)
    let c0 = Array.make n 0.0 in
    for k = 0 to m - 1 do
      c0.(pivot_cols.(k)) <- work.(k).(n)
    done;
    (* null-space basis: one column per free coefficient *)
    let nullspace = Linalg.Mat.make n nf 0.0 in
    Array.iteri
      (fun t j ->
        Linalg.Mat.set nullspace j t 1.0;
        for k = 0 to m - 1 do
          Linalg.Mat.set nullspace pivot_cols.(k) t (-.work.(k).(j))
        done)
      free_cols;
    if nf = 0 then c0
    else begin
      (* reduced problem: min || (A N) t - (y - A c0) || *)
      let an = Linalg.Mat.mul a nullspace in
      let resid = Linalg.Vec.sub y (Linalg.Mat.mul_vec a c0) in
      let t = Linalg.qr_least_squares an resid in
      Linalg.Vec.add c0 (Linalg.Mat.mul_vec nullspace t)
    end
  end

(* Row of the derivative-Vandermonde: dotted with a coefficient vector
   it gives p^(order)(x), so value and slope pins at a point become
   constraint rows. *)
let derivative_row ~degree ~order x =
  Array.init (degree + 1) (fun j ->
      if j < order then 0.0
      else begin
        (* d^order/dx^order x^j = j!/(j-order)! x^(j-order) *)
        let fall = ref 1.0 in
        for k = 0 to order - 1 do
          fall := !fall *. float_of_int (j - k)
        done;
        !fall *. Float.pow x (float_of_int (j - order))
      end)
