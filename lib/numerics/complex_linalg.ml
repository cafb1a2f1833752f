(* Dense complex linear algebra for AC (small-signal) circuit
   analysis: a complex matrix to stamp into and its LU solve. *)

exception Singular of string
exception Dimension_mismatch of string

type cmat = {
  rows : int;
  cols : int;
  data : Complex.t array array;
}

module Cvec = struct
  type t = Complex.t array

  let zero n = Array.make n Complex.zero

  let sub a b =
    if Array.length a <> Array.length b then raise (Dimension_mismatch "Cvec.sub");
    Array.init (Array.length a) (fun i -> Complex.sub a.(i) b.(i))

  let norm_inf a =
    Array.fold_left (fun acc x -> Float.max acc (Complex.norm x)) 0.0 a
end

module Cmat = struct
  type t = cmat

  let zero rows cols =
    if rows < 0 || cols < 0 then invalid_arg "Cmat.zero";
    { rows; cols; data = Array.init rows (fun _ -> Array.make cols Complex.zero) }

  let init rows cols f =
    { rows; cols; data = Array.init rows (fun i -> Array.init cols (fun j -> f i j)) }

  let add_to m i j x = m.data.(i).(j) <- Complex.add m.data.(i).(j) x
  let copy m = { m with data = Array.map Array.copy m.data }

  let mul_vec a x =
    if a.cols <> Array.length x then raise (Dimension_mismatch "Cmat.mul_vec");
    Array.init a.rows (fun i ->
        let acc = ref Complex.zero in
        for j = 0 to a.cols - 1 do
          acc := Complex.add !acc (Complex.mul a.data.(i).(j) x.(j))
        done;
        !acc)
end

(* LU with partial pivoting on the modulus. *)
let solve a b =
  if a.rows <> a.cols then raise (Dimension_mismatch "Complex_linalg.solve: square");
  let n = a.rows in
  if Array.length b <> n then raise (Dimension_mismatch "Complex_linalg.solve: rhs");
  let m = Cmat.copy a in
  let x = Array.copy b in
  for k = 0 to n - 1 do
    let pivot = ref k in
    let best = ref (Complex.norm m.data.(k).(k)) in
    for i = k + 1 to n - 1 do
      let v = Complex.norm m.data.(i).(k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    if !best = 0.0 then
      raise (Singular (Printf.sprintf "Complex_linalg.solve: zero pivot at %d" k));
    if !pivot <> k then begin
      let tmp = m.data.(k) in
      m.data.(k) <- m.data.(!pivot);
      m.data.(!pivot) <- tmp;
      let t = x.(k) in
      x.(k) <- x.(!pivot);
      x.(!pivot) <- t
    end;
    let pv = m.data.(k).(k) in
    for i = k + 1 to n - 1 do
      let factor = Complex.div m.data.(i).(k) pv in
      if factor <> Complex.zero then begin
        for j = k + 1 to n - 1 do
          m.data.(i).(j) <- Complex.sub m.data.(i).(j) (Complex.mul factor m.data.(k).(j))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul factor x.(k))
      end;
      m.data.(i).(k) <- Complex.zero
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := Complex.sub !acc (Complex.mul m.data.(i).(j) x.(j))
    done;
    x.(i) <- Complex.div !acc m.data.(i).(i)
  done;
  x
