(* PCHIP (monotonicity-preserving cubic Hermite) interpolation over
   tabulated data.  It backs the fast table-driven charge-model
   variant. *)

exception Bad_table of string

type t = {
  xs : float array;
  ys : float array;
  ms : float array; (* Fritsch-Carlson slopes at the nodes *)
}

let check xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then raise (Bad_table "Interp: length mismatch");
  if n < 2 then raise (Bad_table "Interp: need at least two points");
  for i = 0 to n - 2 do
    if xs.(i + 1) <= xs.(i) then
      raise (Bad_table "Interp: abscissae must be strictly increasing")
  done

(* Fritsch-Carlson monotone slopes. *)
let pchip_slopes xs ys =
  let n = Array.length xs in
  let h = Array.init (n - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let delta = Array.init (n - 1) (fun i -> (ys.(i + 1) -. ys.(i)) /. h.(i)) in
  let m = Array.make n 0.0 in
  (* interior slopes: weighted harmonic mean when deltas share a sign *)
  for i = 1 to n - 2 do
    if delta.(i - 1) *. delta.(i) > 0.0 then begin
      let w1 = (2.0 *. h.(i)) +. h.(i - 1) in
      let w2 = h.(i) +. (2.0 *. h.(i - 1)) in
      m.(i) <- (w1 +. w2) /. ((w1 /. delta.(i - 1)) +. (w2 /. delta.(i)))
    end
  done;
  (* one-sided endpoint slopes with monotonicity clamp *)
  let endpoint h0 h1 d0 d1 =
    let m0 = (((2.0 *. h0) +. h1) *. d0 -. (h0 *. d1)) /. (h0 +. h1) in
    if m0 *. d0 <= 0.0 then 0.0
    else if d0 *. d1 <= 0.0 && Float.abs m0 > 3.0 *. Float.abs d0 then 3.0 *. d0
    else m0
  in
  if n = 2 then begin
    m.(0) <- delta.(0);
    m.(1) <- delta.(0)
  end
  else begin
    m.(0) <- endpoint h.(0) h.(1) delta.(0) delta.(1);
    m.(n - 1) <- endpoint h.(n - 2) h.(n - 3) delta.(n - 2) delta.(n - 3)
  end;
  m

let pchip xs ys =
  check xs ys;
  let xs = Array.copy xs and ys = Array.copy ys in
  { xs; ys; ms = pchip_slopes xs ys }

(* Clamped segment lookup: values outside the table evaluate the
   boundary cubic, which extrapolates with the boundary slope. *)
let segment t x =
  let n = Array.length t.xs in
  let i = Grid.bracket t.xs x in
  if i < 0 then 0 else if i >= n - 1 then n - 2 else i

let eval t x =
  let i = segment t x in
  let h = t.xs.(i + 1) -. t.xs.(i) in
  let s = (x -. t.xs.(i)) /. h in
  let s2 = s *. s in
  let s3 = s2 *. s in
  let h00 = (2.0 *. s3) -. (3.0 *. s2) +. 1.0 in
  let h10 = s3 -. (2.0 *. s2) +. s in
  let h01 = (-2.0 *. s3) +. (3.0 *. s2) in
  let h11 = s3 -. s2 in
  (h00 *. t.ys.(i))
  +. (h10 *. h *. t.ms.(i))
  +. (h01 *. t.ys.(i + 1))
  +. (h11 *. h *. t.ms.(i + 1))

let eval_derivative t x =
  let i = segment t x in
  let h = t.xs.(i + 1) -. t.xs.(i) in
  let s = (x -. t.xs.(i)) /. h in
  let s2 = s *. s in
  let dh00 = ((6.0 *. s2) -. (6.0 *. s)) /. h in
  let dh10 = ((3.0 *. s2) -. (4.0 *. s) +. 1.0) /. h in
  let dh01 = ((-6.0 *. s2) +. (6.0 *. s)) /. h in
  let dh11 = ((3.0 *. s2) -. (2.0 *. s)) /. h in
  (dh00 *. t.ys.(i))
  +. (dh10 *. h *. t.ms.(i))
  +. (dh01 *. t.ys.(i + 1))
  +. (dh11 *. h *. t.ms.(i + 1))

let of_function f a b n =
  let xs = Grid.linspace a b n in
  pchip xs (Array.map f xs)
