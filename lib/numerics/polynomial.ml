(* Dense univariate polynomials with real coefficients.

   Representation: [c.(i)] is the coefficient of [x^i].  The zero
   polynomial is the empty array (or any array of zeros); [normalise]
   trims trailing zeros so that [degree] is meaningful. *)

type t = float array

let zero : t = [||]
let one : t = [| 1.0 |]

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

let is_zero p = degree p < 0

let constant c = if c = 0.0 then zero else [| c |]

(* x^n with unit coefficient *)
let monomial n =
  if n < 0 then invalid_arg "Polynomial.monomial: negative exponent";
  let p = Array.make (n + 1) 0.0 in
  p.(n) <- 1.0;
  p

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

let sub p q = add p (neg q)

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

(* Antiderivative with integration constant [c]. *)
let antiderivative ?(constant_term = 0.0) p =
  let n = Array.length p in
  Array.init (n + 1) (fun i ->
      if i = 0 then constant_term else p.(i - 1) /. float_of_int i)

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

let pp fmt p = Format.pp_print_string fmt (to_string p)

(* ------------------------------------------------------------------ *)
(* Closed-form real roots for degree <= 3                              *)
(* ------------------------------------------------------------------ *)

(* Real roots of a*x + b = 0. *)
let roots_linear a b = if a = 0.0 then [] else [ -.b /. a ]

(* Numerically stable real roots of a*x^2 + b*x + c = 0, in ascending
   order.  Uses the q = -(b + sign(b)*sqrt(disc))/2 trick to avoid
   cancellation. *)
let roots_quadratic a b c =
  if a = 0.0 then roots_linear b c
  else begin
    let disc = (b *. b) -. (4.0 *. a *. c) in
    if disc < 0.0 then []
    else if disc = 0.0 then [ -.b /. (2.0 *. a) ]
    else begin
      let sq = sqrt disc in
      let q = -0.5 *. (b +. (Special.signum b *. sq)) in
      let q = if b = 0.0 then -0.5 *. sq else q in
      let r1 = q /. a and r2 = c /. q in
      if r1 <= r2 then [ r1; r2 ] else [ r2; r1 ]
    end
  end

(* Real roots of a*x^3 + b*x^2 + c*x + d = 0, ascending.  Cardano with
   the trigonometric branch for three real roots; the depressed cubic
   t^3 + p t + q with x = t - b/(3a). *)
let roots_cubic a b c d =
  if a = 0.0 then roots_quadratic b c d
  else begin
    let b = b /. a and c = c /. a and d = d /. a in
    let shift = b /. 3.0 in
    let p = c -. (b *. b /. 3.0) in
    let q = ((2.0 *. b *. b *. b) -. (9.0 *. b *. c)) /. 27.0 +. d in
    let disc = ((q *. q) /. 4.0) +. ((p *. p *. p) /. 27.0) in
    let ts =
      if Float.abs p < 1e-300 && Float.abs q < 1e-300 then [ 0.0 ]
      else if disc > 0.0 then begin
        (* one real root *)
        let sq = sqrt disc in
        let u = Special.cbrt ((-.q /. 2.0) +. sq) in
        let v = Special.cbrt ((-.q /. 2.0) -. sq) in
        [ u +. v ]
      end
      else if disc = 0.0 then begin
        (* repeated roots, all real *)
        let u = Special.cbrt (-.q /. 2.0) in
        [ 2.0 *. u; -.u ]
      end
      else begin
        (* three distinct real roots: trigonometric method *)
        let r = sqrt (-.p *. p *. p /. 27.0) in
        let phi = acos (Float.max (-1.0) (Float.min 1.0 (-.q /. (2.0 *. r)))) in
        let m = 2.0 *. sqrt (-.p /. 3.0) in
        [
          m *. cos (phi /. 3.0);
          m *. cos ((phi +. (2.0 *. Float.pi)) /. 3.0);
          m *. cos ((phi +. (4.0 *. Float.pi)) /. 3.0);
        ]
      end
    in
    let roots = List.map (fun t -> t -. shift) ts in
    List.sort_uniq compare roots
  end

(* One step of Newton polishing to tighten a closed-form root. *)
let polish p x =
  let v, d = eval_with_derivative p x in
  if d = 0.0 || not (Float.is_finite (x -. (v /. d))) then x
  else begin
    let x' = x -. (v /. d) in
    let v' = eval p x' in
    if Float.abs v' <= Float.abs v then x' else x
  end

(* Real roots for degree <= 3 of an already-normalised polynomial (no
   trailing zero coefficient).  Skips the defensive re-normalise copy
   of {!real_roots_closed_form} but is otherwise the same
   floating-point program, so the two agree bitwise on trimmed
   input — hot callers that build their coefficients trimmed use this
   directly. *)
let real_roots_trimmed p =
  let raw =
    match Array.length p with
    | 0 | 1 -> []
    | 2 -> roots_linear p.(1) p.(0)
    | 3 -> roots_quadratic p.(2) p.(1) p.(0)
    | 4 -> roots_cubic p.(3) p.(2) p.(1) p.(0)
    | _ ->
        invalid_arg
          "Polynomial.real_roots_closed_form: degree exceeds 3 (use durand_kerner)"
  in
  List.sort compare (List.map (polish p) raw)

(* Real roots for degree <= 3, closed form, ascending, Newton-polished. *)
let real_roots_closed_form p = real_roots_trimmed (normalise p)

(* ------------------------------------------------------------------ *)
(* General roots: Durand-Kerner simultaneous iteration                 *)
(* ------------------------------------------------------------------ *)

let durand_kerner ?(tol = 1e-13) ?(max_iter = 500) p =
  let p = normalise p in
  let n = Array.length p - 1 in
  if n < 1 then [||]
  else begin
    (* monic coefficients *)
    let lead = p.(n) in
    let m = Array.map (fun c -> c /. lead) p in
    let eval_c z =
      let acc = ref Complex.zero in
      for i = n downto 0 do
        acc := Complex.add (Complex.mul !acc z) { Complex.re = m.(i); im = 0.0 }
      done;
      !acc
    in
    (* initial guesses on a circle of radius ~ coefficient bound *)
    let radius =
      1.0
      +. Array.fold_left (fun acc c -> Float.max acc (Float.abs c)) 0.0
           (Array.sub m 0 n)
    in
    let roots =
      Array.init n (fun i ->
          let theta =
            (2.0 *. Float.pi *. float_of_int i /. float_of_int n) +. 0.4
          in
          { Complex.re = radius *. cos theta; im = radius *. sin theta })
    in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iter do
      incr iter;
      let max_delta = ref 0.0 in
      for i = 0 to n - 1 do
        let zi = roots.(i) in
        let denom = ref Complex.one in
        for j = 0 to n - 1 do
          if j <> i then denom := Complex.mul !denom (Complex.sub zi roots.(j))
        done;
        let delta = Complex.div (eval_c zi) !denom in
        roots.(i) <- Complex.sub zi delta;
        max_delta := Float.max !max_delta (Complex.norm delta)
      done;
      if !max_delta <= tol then converged := true
    done;
    roots
  end

(* Real roots of any polynomial: Durand-Kerner filtered to (nearly)
   real values, each polished by Newton. *)
let real_roots ?(imag_tol = 1e-8) p =
  let p = normalise p in
  if Array.length p <= 4 then real_roots_closed_form p
  else begin
    let zs = durand_kerner p in
    let candidates =
      Array.to_list zs
      |> List.filter_map (fun z ->
             if
               Float.abs z.Complex.im
               <= imag_tol *. Float.max 1.0 (Complex.norm z)
             then Some (polish p (polish p z.Complex.re))
             else None)
    in
    (* merge duplicates produced by conjugate pairs collapsing *)
    let sorted = List.sort compare candidates in
    let rec dedup = function
      | a :: b :: rest when Special.approx_equal ~atol:1e-10 ~rtol:1e-8 a b ->
          dedup (a :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup sorted
  end
