(* Dense univariate polynomials with real coefficients.

   Representation: [c.(i)] is the coefficient of [x^i].  The zero
   polynomial is the empty array (or any array of zeros); [normalise]
   trims trailing zeros so that [degree] is meaningful. *)

type t = float array

let zero : t = [||]

let of_coeffs c = Array.copy c

let coeffs p = Array.copy p

let normalise p =
  let n = ref (Array.length p) in
  while !n > 0 && p.(!n - 1) = 0.0 do
    decr n
  done;
  Array.sub p 0 !n

let degree p =
  let p = normalise p in
  Array.length p - 1

let constant c = if c = 0.0 then zero else [| c |]

let coeff p i = if i < 0 || i >= Array.length p then 0.0 else p.(i)

let eval p x =
  let acc = ref 0.0 in
  for i = Array.length p - 1 downto 0 do
    acc := (!acc *. x) +. p.(i)
  done;
  !acc

(* Evaluate p and p' in a single Horner pass. *)
let eval_with_derivative p x =
  let v = ref 0.0 and d = ref 0.0 in
  for i = Array.length p - 1 downto 0 do
    d := (!d *. x) +. !v;
    v := (!v *. x) +. p.(i)
  done;
  (!v, !d)

let add p q =
  let n = max (Array.length p) (Array.length q) in
  normalise (Array.init n (fun i -> coeff p i +. coeff q i))

let neg p = Array.map (fun c -> -.c) p

let scale s p = normalise (Array.map (fun c -> s *. c) p)

let mul p q =
  let p = normalise p and q = normalise q in
  if Array.length p = 0 || Array.length q = 0 then zero
  else begin
    let r = Array.make (Array.length p + Array.length q - 1) 0.0 in
    Array.iteri
      (fun i pi -> Array.iteri (fun j qj -> r.(i + j) <- r.(i + j) +. (pi *. qj)) q)
      p;
    r
  end

let derivative p =
  let n = Array.length p in
  if n <= 1 then zero
  else Array.init (n - 1) (fun i -> float_of_int (i + 1) *. p.(i + 1))

(* Composition p(q(x)) by Horner over polynomial arithmetic. *)
let compose p q =
  let acc = ref zero in
  for i = Array.length p - 1 downto 0 do
    acc := add (mul !acc q) (constant p.(i))
  done;
  normalise !acc

(* Shift the argument: [shift p a] is the polynomial x -> p (x + a). *)
let shift p a = compose p [| a; 1.0 |]

(* [shift] into caller scratch: writes the coefficients of [shift p a]
   to the first cells of [acc] and returns how many.  This replays
   [compose p [| a; 1.0 |]] operation for operation — the synthetic
   Horner mul-into-zeroed-scratch, [add]'s elementwise [+.] against the
   constant term (including the [+. 0.0] padding [add] applies beyond
   the constant's length) and [normalise]'s trailing [= 0.0] trim — so
   the values written are bitwise the coefficients {!shift} returns,
   without its intermediate allocations.  Both scratch arrays need
   length at least [Array.length p]; [scr] is clobbered. *)
let shift_into p a acc scr =
  let np = Array.length p in
  let la = ref 0 in
  for i = np - 1 downto 0 do
    (* scr <- mul acc [| a; 1.0 |]; empty acc gives the zero poly *)
    let lm = if !la = 0 then 0 else !la + 1 in
    if lm > 0 then begin
      Array.fill scr 0 lm 0.0;
      for ii = 0 to !la - 1 do
        let c = Array.unsafe_get acc ii in
        Array.unsafe_set scr ii (Array.unsafe_get scr ii +. (c *. a));
        Array.unsafe_set scr (ii + 1) (Array.unsafe_get scr (ii + 1) +. (c *. 1.0))
      done
    end;
    (* acc <- normalise (add scr (constant p.(i))) *)
    let ci = p.(i) in
    let lc = if ci = 0.0 then 0 else 1 in
    let n = if lm > lc then lm else lc in
    for k = 0 to n - 1 do
      let mv = if k < lm then Array.unsafe_get scr k else 0.0 in
      let cv = if k < lc then ci else 0.0 in
      Array.unsafe_set acc k (mv +. cv)
    done;
    let nn = ref n in
    while !nn > 0 && acc.(!nn - 1) = 0.0 do
      decr nn
    done;
    la := !nn
  done;
  !la

let equal ?(tol = 0.0) p q =
  let n = max (Array.length p) (Array.length q) in
  let rec go i =
    i >= n || (Float.abs (coeff p i -. coeff q i) <= tol && go (i + 1))
  in
  go 0

let to_string ?(var = "x") p =
  let p = normalise p in
  if Array.length p = 0 then "0"
  else begin
    let buf = Buffer.create 64 in
    let first = ref true in
    for i = Array.length p - 1 downto 0 do
      let c = p.(i) in
      if c <> 0.0 then begin
        if !first then begin
          if c < 0.0 then Buffer.add_string buf "-";
          first := false
        end
        else Buffer.add_string buf (if c < 0.0 then " - " else " + ");
        let a = Float.abs c in
        if i = 0 then Buffer.add_string buf (Printf.sprintf "%g" a)
        else begin
          if a <> 1.0 then Buffer.add_string buf (Printf.sprintf "%g*" a);
          if i = 1 then Buffer.add_string buf var
          else Buffer.add_string buf (Printf.sprintf "%s^%d" var i)
        end
      end
    done;
    Buffer.contents buf
  end
