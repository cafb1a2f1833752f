(* Tests for the numerical substrate: quadrature, root finding,
   polynomials, linear algebra, fitting, optimisation, interpolation
   and statistics.  The closed-form polynomial roots the charge model
   solves with are tested in test_core, next to their solver. *)

open Cnt_numerics

let check_close ?(eps = 1e-9) msg expected actual =
  if not (Special.approx_equal ~atol:eps ~rtol:eps expected actual) then
    Alcotest.failf "%s: expected %.15g, got %.15g (diff %.3g)" msg expected actual
      (Float.abs (expected -. actual))

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_linspace_endpoints () =
  let g = Grid.linspace (-1.0) 2.0 7 in
  Alcotest.(check int) "length" 7 (Array.length g);
  check_close "first" (-1.0) g.(0);
  check_close "last" 2.0 g.(6);
  check_close "step" 0.5 (g.(1) -. g.(0))

let test_linspace_single () =
  let g = Grid.linspace 3.0 9.0 1 in
  Alcotest.(check int) "length" 1 (Array.length g);
  check_close "value" 3.0 g.(0)

let test_linspace_invalid () =
  Alcotest.check_raises "n=0" (Invalid_argument "Grid.linspace: n must be positive")
    (fun () -> ignore (Grid.linspace 0.0 1.0 0))

let test_logspace () =
  let g = Grid.logspace 1.0 1000.0 4 in
  check_close ~eps:1e-12 "g1" 10.0 g.(1);
  check_close ~eps:1e-12 "g2" 100.0 g.(2)

let test_bracket () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  Alcotest.(check int) "below" (-1) (Grid.bracket xs (-0.5));
  Alcotest.(check int) "exact first" 0 (Grid.bracket xs 0.0);
  Alcotest.(check int) "interior" 1 (Grid.bracket xs 1.5);
  Alcotest.(check int) "on boundary" 2 (Grid.bracket xs 2.0);
  Alcotest.(check int) "above" 3 (Grid.bracket xs 7.0)

let test_is_sorted () =
  Alcotest.(check bool) "sorted" true (Grid.is_sorted [| 1.0; 2.0; 2.0; 5.0 |]);
  Alcotest.(check bool) "unsorted" false (Grid.is_sorted [| 1.0; 0.5 |])

(* ------------------------------------------------------------------ *)
(* Special functions                                                   *)
(* ------------------------------------------------------------------ *)

let test_log1p_exp () =
  check_close "at 0" (log 2.0) (Special.log1p_exp 0.0);
  check_close "large" 1000.0 (Special.log1p_exp 1000.0);
  check_close ~eps:1e-15 "very negative" (exp (-100.0)) (Special.log1p_exp (-100.0));
  Alcotest.(check bool) "finite at +-1e6" true
    (Float.is_finite (Special.log1p_exp 1e6) && Float.is_finite (Special.log1p_exp (-1e6)))

let test_logistic () =
  check_close "at 0" 0.5 (Special.logistic 0.0);
  check_close ~eps:1e-12 "symmetry" 1.0 (Special.logistic 3.0 +. Special.logistic (-3.0));
  check_close "saturates high" 0.0 (Special.logistic 800.0);
  check_close "saturates low" 1.0 (Special.logistic (-800.0))

let test_logistic_derivative () =
  (* compare against a central difference *)
  let x = 1.3 in
  let h = 1e-6 in
  let fd = (Special.logistic (x +. h) -. Special.logistic (x -. h)) /. (2.0 *. h) in
  check_close ~eps:1e-8 "matches finite difference" fd (Special.logistic' x)

(* ------------------------------------------------------------------ *)
(* Quadrature                                                          *)
(* ------------------------------------------------------------------ *)

let test_adaptive_simpson_exp () =
  check_close ~eps:1e-10 "exp" (Float.exp 1.0 -. 1.0)
    (Quadrature.adaptive_simpson exp 0.0 1.0)

let test_adaptive_simpson_oscillatory () =
  (* int_0^pi sin = 2 *)
  check_close ~eps:1e-10 "sin" 2.0 (Quadrature.adaptive_simpson sin 0.0 Float.pi)

let test_empty_interval () =
  check_close "a=b" 0.0 (Quadrature.adaptive_simpson sin 1.0 1.0)

(* ------------------------------------------------------------------ *)
(* Root finding                                                        *)
(* ------------------------------------------------------------------ *)

let test_bisect_sqrt2 () =
  let r = Rootfind.bisect (fun x -> (x *. x) -. 2.0) 0.0 2.0 in
  check_close ~eps:1e-10 "sqrt 2" (sqrt 2.0) r.Rootfind.root

let test_bisect_no_bracket () =
  Alcotest.(check bool) "raises" true
    (match Rootfind.bisect (fun x -> (x *. x) +. 1.0) (-1.0) 1.0 with
    | exception Rootfind.No_bracket _ -> true
    | _ -> false)

let test_newton_bracketed_stiff () =
  (* steep exponential: plain Newton from the middle would overshoot *)
  let f x = exp (20.0 *. x) -. 1.0 in
  let f' x = 20.0 *. exp (20.0 *. x) in
  let r = Rootfind.newton_bracketed ~f ~f' (-5.0) 5.0 in
  check_close ~eps:1e-9 "root 0" 0.0 r.Rootfind.root

let test_bracket_endpoint_root () =
  let r = Rootfind.bisect (fun x -> x) 0.0 1.0 in
  check_close "at endpoint" 0.0 r.Rootfind.root;
  Alcotest.(check int) "no iterations" 0 r.Rootfind.iterations

(* ------------------------------------------------------------------ *)
(* Polynomials                                                         *)
(* ------------------------------------------------------------------ *)

let test_poly_eval_horner () =
  let p = Polynomial.of_coeffs [| 1.0; -2.0; 3.0 |] in
  (* 1 - 2x + 3x^2 at x=2 -> 1 - 4 + 12 = 9 *)
  check_close "eval" 9.0 (Polynomial.eval p 2.0)

let test_poly_eval_with_derivative () =
  let p = Polynomial.of_coeffs [| 5.0; 0.0; 1.0; 2.0 |] in
  let v, d = Polynomial.eval_with_derivative p 1.5 in
  check_close "value" (Polynomial.eval p 1.5) v;
  check_close "deriv" (Polynomial.eval (Polynomial.derivative p) 1.5) d

let test_poly_arithmetic () =
  let p = Polynomial.of_coeffs [| 1.0; 1.0 |] in
  let q = Polynomial.of_coeffs [| -1.0; 1.0 |] in
  (* (x+1)(x-1) = x^2 - 1 *)
  Alcotest.(check bool) "mul" true
    (Polynomial.equal (Polynomial.mul p q) (Polynomial.of_coeffs [| -1.0; 0.0; 1.0 |]));
  Alcotest.(check bool) "add" true
    (Polynomial.equal (Polynomial.add p q) (Polynomial.of_coeffs [| 0.0; 2.0 |]))

let test_poly_degree_normalise () =
  Alcotest.(check int) "trailing zeros" 1
    (Polynomial.degree (Polynomial.of_coeffs [| 1.0; 2.0; 0.0; 0.0 |]));
  Alcotest.(check int) "zero poly" (-1) (Polynomial.degree Polynomial.zero)

let test_poly_compose_shift () =
  let p = Polynomial.of_coeffs [| 0.0; 0.0; 1.0 |] in
  (* shift p by 1: (x+1)^2 = x^2+2x+1 *)
  Alcotest.(check bool) "shift" true
    (Polynomial.equal ~tol:1e-12 (Polynomial.shift p 1.0)
       (Polynomial.of_coeffs [| 1.0; 2.0; 1.0 |]))

let test_poly_to_string () =
  Alcotest.(check string) "render" "2*x^2 - 1" (Polynomial.to_string [| -1.0; 0.0; 2.0 |]);
  Alcotest.(check string) "zero" "0" (Polynomial.to_string Polynomial.zero)

(* ------------------------------------------------------------------ *)
(* Linear algebra                                                      *)
(* ------------------------------------------------------------------ *)

let test_lu_solve_known () =
  let a = Linalg.Mat.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.solve a [| 5.0; 10.0 |] in
  check_close ~eps:1e-12 "x0" 1.0 x.(0);
  check_close ~eps:1e-12 "x1" 3.0 x.(1)

let test_lu_requires_pivoting () =
  (* zero on the diagonal forces a row swap *)
  let a = Linalg.Mat.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Linalg.solve a [| 3.0; 7.0 |] in
  check_close "x0" 7.0 x.(0);
  check_close "x1" 3.0 x.(1)

let test_singular_raises () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "singular" true
    (match Linalg.solve a [| 1.0; 2.0 |] with
    | exception Linalg.Singular _ -> true
    | _ -> false)

let test_qr_least_squares_exact () =
  (* square full-rank system: least squares = exact solve *)
  let a = Linalg.Mat.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 4.0 |] |] in
  let x = Linalg.qr_least_squares a [| 2.0; 8.0 |] in
  check_close "x0" 1.0 x.(0);
  check_close "x1" 2.0 x.(1)

let test_qr_least_squares_overdetermined () =
  (* fit y = a + b x through 4 points of an exact line *)
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let a = Linalg.Mat.init 4 2 (fun i j -> if j = 0 then 1.0 else xs.(i)) in
  let y = Array.map (fun x -> 2.0 +. (0.5 *. x)) xs in
  let c = Linalg.qr_least_squares a y in
  check_close ~eps:1e-12 "intercept" 2.0 c.(0);
  check_close ~eps:1e-12 "slope" 0.5 c.(1)

let test_vec_ops () =
  let a = [| 1.0; 2.0; 2.0 |] and b = [| 0.5; -1.0; 4.0 |] in
  Alcotest.(check (array (float 0.0))) "add" [| 1.5; 1.0; 6.0 |] (Linalg.Vec.add a b);
  Alcotest.(check (array (float 0.0))) "sub" [| 0.5; 3.0; -2.0 |] (Linalg.Vec.sub a b);
  Alcotest.(check bool) "length checked" true
    (match Linalg.Vec.add a [| 1.0 |] with
    | exception Linalg.Dimension_mismatch _ -> true
    | _ -> false)

let test_mat_mul_identity () =
  let a = Linalg.Mat.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let i = Linalg.Mat.init 2 2 (fun r c -> if r = c then 1.0 else 0.0) in
  let b = Linalg.Mat.mul a i in
  for r = 0 to 1 do
    Alcotest.(check (array (float 0.0))) "a * I = a" (Linalg.Mat.row a r)
      (Linalg.Mat.row b r)
  done

let test_dimension_mismatch () =
  let a = Linalg.Mat.make 2 3 0.0 in
  Alcotest.(check bool) "mul_vec" true
    (match Linalg.Mat.mul_vec a [| 1.0; 2.0 |] with
    | exception Linalg.Dimension_mismatch _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Fitting                                                             *)
(* ------------------------------------------------------------------ *)

(* The constrained least-squares pair the charge fits run:
   [derivative_row] turns value/slope pins into constraint rows, and
   [constrained_least_squares] fits the samples subject to them. *)
type pin = { at : float; order : int; value : float }

let constrained_polyfit xs ys degree pins =
  let design =
    Linalg.Mat.init (Array.length xs) (degree + 1) (fun i j ->
        Float.pow xs.(i) (float_of_int j))
  in
  let constraints =
    Linalg.Mat.of_arrays
      (Array.of_list
         (List.map (fun p -> Fit.derivative_row ~degree ~order:p.order p.at) pins))
  in
  let targets = Array.of_list (List.map (fun p -> p.value) pins) in
  Polynomial.of_coeffs
    (Fit.constrained_least_squares ~design ~rhs:ys ~constraints ~targets)

let test_constrained_fit_pins_value () =
  let xs = Grid.linspace 0.0 1.0 20 in
  let ys = Array.map (fun x -> x *. x) xs in
  let p = constrained_polyfit xs ys 2 [ { at = 0.5; order = 0; value = 10.0 } ] in
  check_close ~eps:1e-9 "pinned value" 10.0 (Polynomial.eval p 0.5)

let test_constrained_fit_pins_slope () =
  let xs = Grid.linspace 0.0 1.0 20 in
  let ys = Array.map (fun x -> x *. x) xs in
  let p = constrained_polyfit xs ys 3 [ { at = 0.0; order = 1; value = 5.0 } ] in
  check_close ~eps:1e-9 "pinned slope" 5.0 (Polynomial.eval (Polynomial.derivative p) 0.0)

let test_constrained_fit_exact_interpolation () =
  (* as many independent constraints as unknowns: pure interpolation *)
  let xs = [| 0.0; 1.0 |] in
  let ys = [| 0.0; 0.0 |] in
  let p =
    constrained_polyfit xs ys 1
      [ { at = 0.0; order = 0; value = 3.0 }; { at = 1.0; order = 0; value = 7.0 } ]
  in
  check_close "p(0)" 3.0 (Polynomial.eval p 0.0);
  check_close "p(1)" 7.0 (Polynomial.eval p 1.0)

let test_derivative_row () =
  (* row dotted with coefficients equals p''(x) for cubic *)
  let p = [| 1.0; 2.0; 3.0; 4.0 |] in
  let row = Fit.derivative_row ~degree:3 ~order:2 2.0 in
  let dot = Array.fold_left ( +. ) 0.0 (Array.mapi (fun i r -> r *. p.(i)) row) in
  let p'' = Polynomial.derivative (Polynomial.derivative p) in
  check_close "second derivative" (Polynomial.eval p'' 2.0) dot

let test_too_many_constraints () =
  Alcotest.(check bool) "rejected" true
    (match
       constrained_polyfit [| 0.0; 1.0 |] [| 0.0; 1.0 |] 1
         [
           { at = 0.0; order = 0; value = 0.0 };
           { at = 0.5; order = 0; value = 0.0 };
           { at = 1.0; order = 0; value = 0.0 };
         ]
     with
    | exception Fit.Bad_fit _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Optimisation                                                        *)
(* ------------------------------------------------------------------ *)

let test_nelder_mead_rosenbrock () =
  let rosen v =
    let x = v.(0) and y = v.(1) in
    ((1.0 -. x) ** 2.0) +. (100.0 *. ((y -. (x *. x)) ** 2.0))
  in
  let x, fx = Optimize.nelder_mead ~max_iter:5000 rosen [| -1.2; 1.0 |] in
  check_close ~eps:1e-3 "x" 1.0 x.(0);
  check_close ~eps:1e-3 "y" 1.0 x.(1);
  Alcotest.(check bool) "near zero" true (fx < 1e-5)

let test_nelder_mead_quadratic_bowl () =
  let f v = Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 v in
  let x, fx = Optimize.nelder_mead f [| 3.0; -4.0; 5.0 |] in
  Alcotest.(check bool) "converged" true (fx < 1e-10);
  Array.iter (fun xi -> check_close ~eps:1e-4 "coord" 0.0 xi) x

(* ------------------------------------------------------------------ *)
(* Interpolation                                                       *)
(* ------------------------------------------------------------------ *)

let test_pchip_hits_nodes () =
  let xs = Grid.linspace 0.0 4.0 9 in
  let ys = Array.map (fun x -> exp (-.x)) xs in
  let t = Interp.pchip xs ys in
  Array.iteri (fun i x -> check_close ~eps:1e-12 "node" ys.(i) (Interp.eval t x)) xs

let test_pchip_monotone () =
  (* monotone data must produce a monotone interpolant (no overshoot) *)
  let xs = [| 0.0; 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 0.0; 0.1; 0.9; 1.0; 1.0 |] in
  let t = Interp.pchip xs ys in
  let fine = Grid.linspace 0.0 4.0 200 in
  let prev = ref (Interp.eval t 0.0) in
  Array.iter
    (fun x ->
      let v = Interp.eval t x in
      Alcotest.(check bool) "non-decreasing" true (v >= !prev -. 1e-12);
      prev := v)
    fine

let test_pchip_derivative_consistency () =
  let t = Interp.of_function (fun x -> sin x) 0.0 3.0 40 in
  let x = 1.234 in
  let h = 1e-6 in
  let fd = (Interp.eval t (x +. h) -. Interp.eval t (x -. h)) /. (2.0 *. h) in
  check_close ~eps:1e-5 "derivative" fd (Interp.eval_derivative t x)

let test_interp_validation () =
  Alcotest.(check bool) "non-monotone abscissae" true
    (match Interp.pchip [| 0.0; 0.0 |] [| 1.0; 2.0 |] with
    | exception Interp.Bad_table _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let test_mean_variance () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "mean" 2.5 (Stats.mean xs);
  check_close "variance" 1.25 (Stats.variance xs);
  check_close "stddev" (sqrt 1.25) (Stats.stddev xs)

let test_rms () =
  check_close "rms" (sqrt 12.5) (Stats.rms [| 3.0; -4.0 |]);
  check_close "constant" 2.0 (Stats.rms [| 2.0; -2.0; 2.0 |])

let test_rms_error_metrics () =
  let reference = [| 1.0; 2.0; 3.0 |] in
  let approx = [| 1.1; 1.9; 3.0 |] in
  let e = Stats.rms_error reference approx in
  check_close ~eps:1e-12 "rms error" (sqrt (0.02 /. 3.0)) e;
  check_close ~eps:1e-12 "relative" (e /. Stats.rms reference)
    (Stats.relative_rms_error reference approx);
  check_close "identical" 0.0 (Stats.relative_rms_error reference reference)

let test_percentile_median () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_close "median" 3.0 (Stats.median xs);
  check_close "p0" 1.0 (Stats.percentile xs 0.0);
  check_close "p100" 5.0 (Stats.percentile xs 100.0);
  check_close "p25" 2.0 (Stats.percentile xs 25.0)

let test_empty_raises () =
  Alcotest.(check bool) "empty mean" true
    (match Stats.mean [||] with exception Stats.Empty _ -> true | _ -> false)

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let small_float = QCheck2.Gen.float_range (-50.0) 50.0

let poly_gen =
  QCheck2.Gen.(
    list_size (int_range 1 5) (float_range (-10.0) 10.0) >|= fun cs ->
    Polynomial.of_coeffs (Array.of_list cs))

let prop_poly_add_commutes =
  QCheck2.Test.make ~name:"polynomial addition commutes" ~count:200
    QCheck2.Gen.(pair poly_gen poly_gen)
    (fun (p, q) ->
      Polynomial.equal ~tol:1e-9 (Polynomial.add p q) (Polynomial.add q p))

let prop_poly_mul_distributes =
  QCheck2.Test.make ~name:"polynomial multiplication distributes" ~count:200
    QCheck2.Gen.(triple poly_gen poly_gen poly_gen)
    (fun (p, q, r) ->
      Polynomial.equal ~tol:1e-6
        (Polynomial.mul p (Polynomial.add q r))
        (Polynomial.add (Polynomial.mul p q) (Polynomial.mul p r)))

let prop_poly_eval_matches_mul =
  QCheck2.Test.make ~name:"eval of product = product of evals" ~count:200
    QCheck2.Gen.(triple poly_gen poly_gen (float_range (-3.0) 3.0))
    (fun (p, q, x) ->
      let lhs = Polynomial.eval (Polynomial.mul p q) x in
      let rhs = Polynomial.eval p x *. Polynomial.eval q x in
      Special.approx_equal ~atol:1e-6 ~rtol:1e-6 lhs rhs)

let prop_lu_reconstruction =
  QCheck2.Test.make ~name:"LU solve then multiply returns rhs" ~count:200
    QCheck2.Gen.(
      let dim = int_range 1 6 in
      dim >>= fun n ->
      let entry = float_range (-5.0) 5.0 in
      pair (return n) (list_size (return (n * n + n)) entry))
    (fun (n, data) ->
      let arr = Array.of_list data in
      let a = Linalg.Mat.init n n (fun i j -> arr.((i * n) + j)) in
      let b = Array.init n (fun i -> arr.((n * n) + i)) in
      match Linalg.solve a b with
      | exception Linalg.Singular _ -> true (* random singular: skip *)
      | x ->
          let b' = Linalg.Mat.mul_vec a x in
          Array.for_all2
            (fun u v -> Special.approx_equal ~atol:1e-5 ~rtol:1e-5 u v)
            b b')

let prop_quadrature_matches_antiderivative =
  QCheck2.Test.make ~name:"adaptive Simpson integrates polynomials exactly"
    ~count:200
    QCheck2.Gen.(triple poly_gen (float_range (-3.0) 0.0) (float_range 0.1 3.0))
    (fun (p, a, b) ->
      (* the exact integral, term by term: c_i (b^(i+1) - a^(i+1)) / (i+1) *)
      let prim x =
        Array.fold_left ( +. ) 0.0
          (Array.mapi (fun i c -> c *. Float.pow x (float_of_int (i + 1)) /. float_of_int (i + 1)) p)
      in
      let expected = prim b -. prim a in
      let actual = Quadrature.adaptive_simpson (Polynomial.eval p) a b in
      Special.approx_equal ~atol:1e-7 ~rtol:1e-7 expected actual)

let prop_newton_bracketed_finds_root =
  QCheck2.Test.make ~name:"bracketed Newton finds the root of random cubics"
    ~count:300
    QCheck2.Gen.(pair small_float small_float)
    (fun (r0, shift) ->
      QCheck2.assume (Float.abs shift > 0.1);
      (* f(x) = (x - r0)^3 has a sign change around r0 and a triple
         root there, where Newton's steps shrink only linearly *)
      let f x = (x -. r0) ** 3.0 in
      let f' x = 3.0 *. ((x -. r0) ** 2.0) in
      let result =
        Rootfind.newton_bracketed ~f ~f' (r0 -. Float.abs shift) (r0 +. Float.abs shift)
      in
      Float.abs (result.Rootfind.root -. r0) < 1e-3)

let prop_pchip_stays_in_data_range =
  QCheck2.Test.make ~name:"PCHIP never overshoots the data range" ~count:200
    QCheck2.Gen.(list_size (int_range 3 10) (float_range 0.0 10.0))
    (fun ys_list ->
      let ys = Array.of_list ys_list in
      let xs = Array.init (Array.length ys) float_of_int in
      let t = Interp.pchip xs ys in
      let lo = Array.fold_left Float.min ys.(0) ys in
      let hi = Array.fold_left Float.max ys.(0) ys in
      let fine = Grid.linspace 0.0 (float_of_int (Array.length ys - 1)) 100 in
      Array.for_all
        (fun x ->
          let v = Interp.eval t x in
          v >= lo -. 1e-9 && v <= hi +. 1e-9)
        fine)

let prop_percentile_monotone =
  QCheck2.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck2.Gen.(list_size (int_range 1 20) small_float)
    (fun xs_list ->
      let xs = Array.of_list xs_list in
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 100.0 ] in
      let vals = List.map (Stats.percentile xs) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && mono rest
        | _ -> true
      in
      mono vals)

(* Sparse.of_pattern against the way the CSR used to be built: hash the
   distinct locations as packed keys, sort them (row-major is CSR
   order), and a location's slot is its rank. *)
let reference_slots n pattern =
  let seen = Hashtbl.create 64 in
  Array.iter (fun (i, j) -> Hashtbl.replace seen ((i * n) + j) ()) pattern;
  let keys = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort Int.compare keys;
  let slots = Hashtbl.create 64 in
  Array.iteri (fun s key -> Hashtbl.replace slots (key / n, key mod n) s) keys;
  slots

let prop_of_pattern_matches_reference =
  QCheck2.Test.make ~name:"of_pattern slots match hash-and-sort CSR" ~count:300
    ~print:(fun (n, pattern) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat "; "
           (List.map (fun (i, j) -> Printf.sprintf "(%d,%d)" i j) pattern)))
    QCheck2.Gen.(
      let* n = int_range 1 25 in
      let loc = pair (int_bound (n - 1)) (int_bound (n - 1)) in
      let* distinct = list_size (int_bound (2 * n * n)) loc in
      (* repeat a random share of the locations, then shuffle *)
      let* repeats =
        if distinct = [] then return []
        else list_size (int_bound (List.length distinct)) (oneofl distinct)
      in
      let* pattern = shuffle_l (distinct @ repeats) in
      return (n, pattern))
    (fun (n, pattern) ->
      let pattern = Array.of_list pattern in
      let of_pattern pattern =
        Sparse.of_pattern n (Array.map fst pattern) (Array.map snd pattern)
      in
      let m, entry_slots = of_pattern pattern in
      let slots = reference_slots n pattern in
      if Sparse.nnz m <> Hashtbl.length slots then
        QCheck2.Test.fail_reportf "nnz %d, reference %d" (Sparse.nnz m)
          (Hashtbl.length slots);
      (* every location: present ones at the reference slot, absent
         ones raising *)
      let show = function None -> "raises" | Some s -> string_of_int s in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let got =
            match Sparse.slot m i j with
            | s -> Some s
            | exception Invalid_argument _ -> None
          in
          let want = Hashtbl.find_opt slots (i, j) in
          if got <> want then
            QCheck2.Test.fail_reportf "(%d, %d): slot %s, reference %s" i j
              (show got) (show want)
        done
      done;
      (* the build's slot for every entry, repeats included, holds that
         entry's location *)
      Array.iteri
        (fun k (i, j) ->
          if entry_slots.(k) <> Hashtbl.find slots (i, j) then
            QCheck2.Test.fail_reportf "entry %d (%d, %d): slot %d, reference %d" k
              i j entry_slots.(k) (Hashtbl.find slots (i, j)))
        pattern;
      (* the range check stays *)
      List.for_all
        (fun bad ->
          match of_pattern (Array.append pattern [| bad |]) with
          | exception Invalid_argument msg
            when msg = Printf.sprintf "Sparse.of_pattern: (%d, %d) out of range"
                         (fst bad) (snd bad) ->
              true
          | _ ->
              QCheck2.Test.fail_reportf "out-of-range (%d, %d) accepted" (fst bad)
                (snd bad))
        [ (n, 0); (0, n); (-1, 0); (0, -1) ])

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_poly_add_commutes;
      prop_poly_mul_distributes;
      prop_poly_eval_matches_mul;
      prop_lu_reconstruction;
      prop_quadrature_matches_antiderivative;
      prop_newton_bracketed_finds_root;
      prop_pchip_stays_in_data_range;
      prop_percentile_monotone;
      prop_of_pattern_matches_reference;
    ]


(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:7L () and b = Prng.create ~seed:7L () in
  for _ = 1 to 100 do
    check_close ~eps:0.0 "same stream" (Prng.uniform a) (Prng.uniform b)
  done

let test_prng_uniform_range () =
  let rng = Prng.create () in
  for _ = 1 to 1000 do
    let u = Prng.uniform rng in
    Alcotest.(check bool) "in [0,1)" true (u >= 0.0 && u < 1.0)
  done;
  for _ = 1 to 100 do
    let v = Prng.uniform_range rng ~lo:(-2.0) ~hi:3.0 in
    Alcotest.(check bool) "in range" true (v >= -2.0 && v < 3.0)
  done

let test_prng_uniform_moments () =
  let rng = Prng.create ~seed:123L () in
  let xs = Array.init 20000 (fun _ -> Prng.uniform rng) in
  check_close ~eps:0.01 "mean 1/2" 0.5 (Stats.mean xs);
  check_close ~eps:0.01 "stddev 1/sqrt(12)" (1.0 /. sqrt 12.0) (Stats.stddev xs)

let test_prng_gaussian_moments () =
  let rng = Prng.create ~seed:321L () in
  let xs = Array.init 20000 (fun _ -> Prng.gaussian ~mean:2.0 ~sigma:0.5 rng) in
  check_close ~eps:0.02 "mean" 2.0 (Stats.mean xs);
  check_close ~eps:0.02 "sigma" 0.5 (Stats.stddev xs)

let test_prng_split_differs () =
  let rng = Prng.create ~seed:99L () in
  let a = Prng.split rng and b = Prng.split rng in
  Alcotest.(check bool) "streams differ" true (Prng.uniform a <> Prng.uniform b)

let test_prng_jump_equals_draws () =
  (* jumping n is bit-identical to drawing n values and discarding *)
  List.iter
    (fun n ->
      let a = Prng.create ~seed:7L () and b = Prng.create ~seed:7L () in
      for _ = 1 to n do
        ignore (Prng.next_int64 a)
      done;
      Prng.jump b n;
      for _ = 1 to 16 do
        Alcotest.(check int64) "same draw after jump" (Prng.next_int64 a)
          (Prng.next_int64 b)
      done)
    [ 0; 1; 13; 1000 ]

let test_prng_stream_independent_of_others () =
  (* stream i is identical no matter how many other streams exist, in
     what order they are created, or how much the others are used *)
  let draws rng = Array.init 32 (fun _ -> Prng.next_int64 rng) in
  let base () = Prng.create ~seed:2024L () in
  let alone = draws (Prng.stream (base ()) 5) in
  (* create many other streams first, consume them heavily *)
  let b = base () in
  List.iter
    (fun i ->
      let s = Prng.stream b i in
      for _ = 1 to 100 do
        ignore (Prng.uniform s)
      done)
    [ 9; 0; 3; 7; 1 ];
  let crowded = draws (Prng.stream b 5) in
  Alcotest.(check (array int64)) "stream 5 unchanged by other streams" alone
    crowded;
  (* deriving a stream must not mutate the base *)
  let c = base () in
  let first = Prng.next_int64 (Prng.stream c 0) in
  ignore (Prng.stream c 1);
  Alcotest.(check int64) "base unmutated by stream derivation" first
    (Prng.next_int64 (Prng.stream c 0));
  (* distinct indices give distinct draws *)
  Alcotest.(check bool) "streams 0 and 1 differ" true
    (Prng.next_int64 (Prng.stream (base ()) 0)
    <> Prng.next_int64 (Prng.stream (base ()) 1))


(* ------------------------------------------------------------------ *)
(* Complex linear algebra                                              *)
(* ------------------------------------------------------------------ *)

let cx re im = { Complex.re; im }

let test_complex_solve_known () =
  (* (1+i) x = 2i  ->  x = 2i/(1+i) = 1 + i *)
  let a = Complex_linalg.Cmat.init 1 1 (fun _ _ -> cx 1.0 1.0) in
  let x = Complex_linalg.solve a [| cx 0.0 2.0 |] in
  check_close ~eps:1e-12 "re" 1.0 x.(0).Complex.re;
  check_close ~eps:1e-12 "im" 1.0 x.(0).Complex.im

let test_complex_solve_residual () =
  (* diagonally dominant 3x3 system: residual of the solution vanishes *)
  let a =
    Complex_linalg.Cmat.init 3 3 (fun i j ->
        if i = j then cx (10.0 +. float_of_int i) 0.5
        else cx (float_of_int (i + j)) (float_of_int (i - j)))
  in
  let b = [| cx 1.0 0.0; cx 0.0 1.0; cx 2.0 (-1.0) |] in
  let x = Complex_linalg.solve a b in
  let r = Complex_linalg.Cvec.sub (Complex_linalg.Cmat.mul_vec a x) b in
  Alcotest.(check bool) "residual tiny" true (Complex_linalg.Cvec.norm_inf r < 1e-12)

let test_complex_singular () =
  let a = Complex_linalg.Cmat.zero 2 2 in
  Alcotest.(check bool) "singular detected" true
    (match Complex_linalg.solve a [| Complex.one; Complex.one |] with
    | exception Complex_linalg.Singular _ -> true
    | _ -> false)

let test_complex_pivoting () =
  (* zero top-left pivot requires a row swap *)
  let a =
    Complex_linalg.Cmat.init 2 2 (fun i j ->
        if i = 0 && j = 0 then Complex.zero
        else if i = 0 then Complex.one
        else if j = 0 then cx 2.0 0.0
        else Complex.zero)
  in
  let x = Complex_linalg.solve a [| cx 3.0 0.0; cx 4.0 0.0 |] in
  check_close ~eps:1e-12 "x0" 2.0 x.(0).Complex.re;
  check_close ~eps:1e-12 "x1" 3.0 x.(1).Complex.re

(* ------------------------------------------------------------------ *)
(* Sparse matrices and the MNA linear solver                           *)
(* ------------------------------------------------------------------ *)

let sparse_of_dense rows =
  let n = Array.length rows in
  let pattern = ref [] in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> if v <> 0.0 then pattern := (i, j) :: !pattern) row)
    rows;
  let pattern = Array.of_list !pattern in
  let m, _ = Sparse.of_pattern n (Array.map fst pattern) (Array.map snd pattern) in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> if v <> 0.0 then Sparse.add_to m i j v) row)
    rows;
  m

let test_sparse_solve_known () =
  (* needs a pivot: zero in the (0,0) position *)
  let rows = [| [| 0.0; 2.0; 0.0 |]; [| 1.0; 0.0; 1.0 |]; [| 0.0; 1.0; 3.0 |] |] in
  let m = sparse_of_dense rows in
  Alcotest.(check int) "nnz" 5 (Sparse.nnz m);
  let x = Sparse.solve m [| 2.0; 5.0; 10.0 |] in
  let expected = Linalg.solve (Linalg.Mat.of_arrays rows) [| 2.0; 5.0; 10.0 |] in
  Array.iteri (fun i v -> check_close ~eps:1e-12 (Printf.sprintf "x%d" i) expected.(i) v) x

(* random sparse diagonally-dominant system, same answer as dense LU *)
let random_system rng n =
  let rows = Array.init n (fun _ -> Array.make n 0.0) in
  for i = 0 to n - 1 do
    for _ = 1 to 4 do
      let j = int_of_float (Prng.uniform rng *. float_of_int n) mod n in
      rows.(i).(j) <- rows.(i).(j) +. Prng.uniform_range rng ~lo:(-1.0) ~hi:1.0
    done;
    (* strict diagonal dominance keeps every instance well conditioned *)
    let off = Array.fold_left (fun acc v -> acc +. Float.abs v) 0.0 rows.(i) in
    rows.(i).(i) <- rows.(i).(i) +. off +. 1.0
  done;
  rows

let test_sparse_matches_dense_random () =
  let rng = Prng.create ~seed:42L () in
  for trial = 1 to 10 do
    let n = 10 + (trial * 7) in
    let rows = random_system rng n in
    let b = Array.init n (fun _ -> Prng.uniform_range rng ~lo:(-5.0) ~hi:5.0) in
    let x_dense = Linalg.solve (Linalg.Mat.of_arrays rows) b in
    let x_sparse = Sparse.solve (sparse_of_dense rows) b in
    Array.iteri
      (fun i v ->
        check_close ~eps:1e-9 (Printf.sprintf "trial %d x%d" trial i) x_dense.(i) v)
      x_sparse
  done

let test_sparse_refill_in_place () =
  (* one structure, two numeric problems: the workspace is reused *)
  let rows = [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let m = sparse_of_dense rows in
  let lu = Sparse.lu_create m in
  Sparse.refactor lu m;
  let x1 = Sparse.lu_solve lu [| 5.0; 4.0 |] in
  check_close ~eps:1e-12 "first x0" 1.0 x1.(0);
  check_close ~eps:1e-12 "first x1" 1.0 x1.(1);
  Sparse.clear m;
  let s00 = Sparse.slot m 0 0 in
  Sparse.add_slot m s00 2.0;
  Sparse.add_to m 0 1 0.0;
  Sparse.add_to m 1 0 0.0;
  Sparse.add_to m 1 1 5.0;
  Sparse.refactor lu m;
  let x2 = Sparse.lu_solve lu [| 4.0; 10.0 |] in
  check_close ~eps:1e-12 "second x0" 2.0 x2.(0);
  check_close ~eps:1e-12 "second x1" 2.0 x2.(1)

let test_sparse_singular () =
  (* numerically singular: two proportional rows *)
  let m = sparse_of_dense [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.(check bool) "numerically singular" true
    (match Sparse.solve m [| 1.0; 2.0 |] with
    | exception Sparse.Singular _ -> true
    | _ -> false);
  (* structurally singular: an empty row *)
  let m, _ = Sparse.of_pattern 2 [| 0 |] [| 0 |] in
  Sparse.add_to m 0 0 1.0;
  Alcotest.(check bool) "structurally singular" true
    (match Sparse.solve m [| 1.0; 1.0 |] with
    | exception Sparse.Singular _ -> true
    | _ -> false)

let test_sparse_pattern_frozen () =
  let m = sparse_of_dense [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  Alcotest.(check bool) "outside pattern rejected" true
    (match Sparse.add_to m 0 1 1.0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_close ~eps:0.0 "get outside pattern" 0.0 (Sparse.get m 1 0)

let test_sparse_mul_vec_residual () =
  let rows = [| [| 1.0; 2.0; 0.0 |]; [| 0.0; 3.0; 4.0 |]; [| 5.0; 0.0; 6.0 |] |] in
  let m = sparse_of_dense rows in
  let y = Sparse.mul_vec m [| 1.0; 1.0; 1.0 |] in
  check_close "y0" 3.0 y.(0);
  check_close "y1" 7.0 y.(1);
  check_close "y2" 11.0 y.(2);
  check_close ~eps:1e-12 "residual zero" 0.0
    (Sparse.residual_inf m [| 1.0; 1.0; 1.0 |] y);
  y.(1) <- y.(1) +. 0.5;
  check_close ~eps:1e-12 "residual perturbed" 0.5
    (Sparse.residual_inf m [| 1.0; 1.0; 1.0 |] y)

(* The MNA solver against dense LU on random systems, each with a
   voltage-source branch appended: the branch row reads one node
   voltage and has a zero diagonal, so the factorisation must pivot.
   Slots and solutions are in the caller's numbering whatever order
   the minimum-degree permutation chose. *)
let test_backend_instances_agree () =
  let rng = Prng.create ~seed:7L () in
  for trial = 1 to 10 do
    let n = 5 + (trial * 4) in
    let rows = random_system rng (n + 1) in
    let p = trial mod n in
    Array.fill rows.(n) 0 (n + 1) 0.0;
    Array.iteri (fun i row -> row.(n) <- (if i = p then 1.0 else 0.0)) rows;
    rows.(n).(p) <- 1.0;
    let pattern =
      Array.concat
        (Array.to_list
           (Array.mapi
              (fun i row ->
                Array.of_list
                  (List.filter_map
                     (fun j -> if row.(j) <> 0.0 then Some (i, j) else None)
                     (List.init (n + 1) Fun.id)))
              rows))
    in
    let s, slots =
      Linear_solver.create (n + 1) (Array.map fst pattern) (Array.map snd pattern)
    in
    (* the slots the build returned are the ones a search finds *)
    Array.iteri
      (fun k (i, j) ->
        Alcotest.(check int) "slot" (Linear_solver.slot s i j) slots.(k))
      pattern;
    let fill s =
      Array.iteri
        (fun k (i, j) -> Linear_solver.add_slot s slots.(k) rows.(i).(j))
        pattern
    in
    fill s;
    let b =
      Array.init (n + 1) (fun _ -> Prng.uniform_range rng ~lo:(-5.0) ~hi:5.0)
    in
    let expected = Linalg.solve (Linalg.Mat.of_arrays rows) b in
    let x = Linear_solver.solve s b in
    Array.iteri
      (fun i v ->
        check_close ~eps:1e-9
          (Printf.sprintf "trial %d x%d" trial i)
          expected.(i) v)
      x;
    check_close ~eps:1e-9 "residual" 0.0 (Linear_solver.residual s x b);
    (* a clone shares the structure and solves the same bits *)
    let c = Linear_solver.clone s in
    fill c;
    Alcotest.(check bool)
      "clone solves bitwise equal" true
      (Linear_solver.solve c b = x)
  done;
  (* unknown 1 has no entries: the singular pivot names it *)
  let s, slots = Linear_solver.create 3 [| 0; 0; 2; 2 |] [| 0; 2; 0; 2 |] in
  Array.iteri (fun k v -> Linear_solver.add_slot s slots.(k) v) [| 1.0; 0.5; 0.5; 1.0 |];
  match Linear_solver.solve s [| 1.0; 1.0; 1.0 |] with
  | exception Linear_solver.Singular k ->
      Alcotest.(check int) "singular unknown" 1 k
  | _ -> Alcotest.fail "singular system solved"

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "cnt_numerics"
    [
      ( "grid",
        [
          tc "linspace endpoints" test_linspace_endpoints;
          tc "linspace single point" test_linspace_single;
          tc "linspace rejects n<=0" test_linspace_invalid;
          tc "logspace" test_logspace;
          tc "bracket binary search" test_bracket;
          tc "is_sorted" test_is_sorted;
        ] );
      ( "special",
        [
          tc "log1p_exp stable" test_log1p_exp;
          tc "logistic stable" test_logistic;
          tc "logistic derivative" test_logistic_derivative;
        ] );
      ( "quadrature",
        [
          tc "adaptive simpson exp" test_adaptive_simpson_exp;
          tc "adaptive simpson sin" test_adaptive_simpson_oscillatory;
          tc "empty interval" test_empty_interval;
        ] );
      ( "rootfind",
        [
          tc "bisection sqrt2" test_bisect_sqrt2;
          tc "bisection requires bracket" test_bisect_no_bracket;
          tc "bracketed newton on stiff exp" test_newton_bracketed_stiff;
          tc "root at bracket endpoint" test_bracket_endpoint_root;
        ] );
      ( "polynomial",
        [
          tc "horner eval" test_poly_eval_horner;
          tc "eval with derivative" test_poly_eval_with_derivative;
          tc "ring operations" test_poly_arithmetic;
          tc "degree normalisation" test_poly_degree_normalise;
          tc "argument shift" test_poly_compose_shift;
          tc "pretty printing" test_poly_to_string;
        ] );
      ( "linalg",
        [
          tc "lu solve 2x2" test_lu_solve_known;
          tc "lu pivoting" test_lu_requires_pivoting;
          tc "singular detection" test_singular_raises;
          tc "qr exact solve" test_qr_least_squares_exact;
          tc "qr overdetermined line fit" test_qr_least_squares_overdetermined;
          tc "vector operations" test_vec_ops;
          tc "identity multiplication" test_mat_mul_identity;
          tc "dimension checks" test_dimension_mismatch;
        ] );
      ( "sparse",
        [
          tc "solve with pivoting" test_sparse_solve_known;
          tc "matches dense on random systems" test_sparse_matches_dense_random;
          tc "refill in place" test_sparse_refill_in_place;
          tc "singular detection" test_sparse_singular;
          tc "pattern frozen after finalize" test_sparse_pattern_frozen;
          tc "mul_vec and residual" test_sparse_mul_vec_residual;
          tc "dense and sparse backends agree" test_backend_instances_agree;
        ] );
      ( "fit",
        [
          tc "constraint pins value" test_constrained_fit_pins_value;
          tc "constraint pins slope" test_constrained_fit_pins_slope;
          tc "constraints interpolate exactly" test_constrained_fit_exact_interpolation;
          tc "derivative row" test_derivative_row;
          tc "over-constrained rejected" test_too_many_constraints;
        ] );
      ( "optimize",
        [
          tc "nelder-mead rosenbrock" test_nelder_mead_rosenbrock;
          tc "nelder-mead 3d bowl" test_nelder_mead_quadratic_bowl;
        ] );
      ( "interp",
        [
          tc "pchip hits nodes" test_pchip_hits_nodes;
          tc "pchip monotonicity" test_pchip_monotone;
          tc "pchip derivative" test_pchip_derivative_consistency;
          tc "table validation" test_interp_validation;
        ] );
      ( "stats",
        [
          tc "mean and variance" test_mean_variance;
          tc "rms" test_rms;
          tc "rms error metrics" test_rms_error_metrics;
          tc "percentile and median" test_percentile_median;
          tc "empty input raises" test_empty_raises;
        ] );
      ( "complex_linalg",
        [
          tc "1x1 complex solve" test_complex_solve_known;
          tc "3x3 residual" test_complex_solve_residual;
          tc "singular detection" test_complex_singular;
          tc "pivoting" test_complex_pivoting;
        ] );
      ( "prng",
        [
          tc "deterministic streams" test_prng_deterministic;
          tc "uniform range" test_prng_uniform_range;
          tc "uniform moments" test_prng_uniform_moments;
          tc "gaussian moments" test_prng_gaussian_moments;
          tc "split independence" test_prng_split_differs;
          tc "jump equals discarded draws" test_prng_jump_equals_draws;
          tc "stream i independent of other streams"
            test_prng_stream_independent_of_others;
        ] );
      ("properties", qcheck_cases);
    ]
