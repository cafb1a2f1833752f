(* Piecewise polynomial functions on the real line.

   A function with n boundaries b_0 < b_1 < ... < b_{n-1} has n+1
   pieces: piece 0 on (-inf, b_0], piece i on (b_{i-1}, b_i], piece n
   on (b_{n-1}, +inf).  The paper's Model 1 has boundaries
   {E_F/q - 0.08, E_F/q + 0.08} and pieces {linear, quadratic, zero};
   Model 2 has three boundaries and pieces {linear, quadratic, cubic,
   zero}. *)

open Cnt_numerics

type t = {
  boundaries : float array; (* strictly ascending *)
  pieces : Polynomial.t array; (* length = boundaries + 1 *)
}

let create ~boundaries ~pieces =
  let nb = Array.length boundaries and np = Array.length pieces in
  if np <> nb + 1 then
    invalid_arg "Piecewise.create: need exactly one more piece than boundary";
  for i = 0 to nb - 2 do
    if boundaries.(i + 1) <= boundaries.(i) then
      invalid_arg "Piecewise.create: boundaries must be strictly ascending"
  done;
  { boundaries = Array.copy boundaries; pieces = Array.map Array.copy pieces }

let boundaries t = Array.copy t.boundaries
let pieces t = Array.map Array.copy t.pieces
let piece_count t = Array.length t.pieces

(* Index of the piece containing x.  Boundaries belong to the piece on
   their left, matching the paper's "V_SC <= E_F/q - 0.08" region
   inequalities. *)
let piece_index t x =
  let nb = Array.length t.boundaries in
  let rec go i = if i >= nb then nb else if x <= t.boundaries.(i) then i else go (i + 1) in
  (* boundaries array is short (<= 7); linear scan beats binary search *)
  go 0

let piece_at t x = t.pieces.(piece_index t x)

let eval t x = Polynomial.eval (piece_at t x) x

let eval_with_derivative t x = Polynomial.eval_with_derivative (piece_at t x) x

let derivative t =
  { t with pieces = Array.map Polynomial.derivative t.pieces }

let map_pieces f t = { t with pieces = Array.map f t.pieces }

let scale s t = map_pieces (Polynomial.scale s) t

let add_constant c t = map_pieces (fun p -> Polynomial.add p (Polynomial.constant c)) t

(* Argument shift: [shift t a] is the function x -> t (x + a); every
   boundary moves left by a. *)
let shift t a =
  {
    boundaries = Array.map (fun b -> b -. a) t.boundaries;
    pieces = Array.map (fun p -> Polynomial.shift p a) t.pieces;
  }

(* Largest mismatch of the function value (order 0) or a derivative
   across all boundaries; a C1 function has both orders ~0. *)
let continuity_defect ?(order = 0) t =
  let d = ref 0.0 in
  let rec nth_derivative p k = if k = 0 then p else nth_derivative (Polynomial.derivative p) (k - 1) in
  Array.iteri
    (fun i b ->
      let left = nth_derivative t.pieces.(i) order in
      let right = nth_derivative t.pieces.(i + 1) order in
      d := Float.max !d (Float.abs (Polynomial.eval left b -. Polynomial.eval right b)))
    t.boundaries;
  !d

let is_c1 ?(tol = 1e-9) ?(scale = 1.0) t =
  continuity_defect ~order:0 t <= tol *. scale
  && continuity_defect ~order:1 t <= tol *. scale

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i p ->
      let lo =
        if i = 0 then "-inf" else Printf.sprintf "%g" t.boundaries.(i - 1)
      in
      let hi =
        if i = Array.length t.boundaries then "+inf"
        else Printf.sprintf "%g" t.boundaries.(i)
      in
      Format.fprintf fmt "(%s, %s]: %s@," lo hi (Polynomial.to_string p))
    t.pieces;
  Format.fprintf fmt "@]"
