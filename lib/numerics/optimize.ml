(* Derivative-free minimisation: the Nelder-Mead simplex, which
   optimises the piecewise-region boundaries against RMS fitting error
   and tunes the Model 1 offsets against the drain-current error. *)

(* Nelder-Mead downhill simplex.  Standard reflection/expansion/
   contraction/shrink coefficients.  Returns the best vertex. *)
let nelder_mead ?(tol = 1e-10) ?(max_iter = 2000) ?(initial_step = 0.1) f x0 =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Optimize.nelder_mead: empty start point";
  let alpha = 1.0 and gamma = 2.0 and rho = 0.5 and sigma = 0.5 in
  (* simplex of n+1 vertices *)
  let vertices =
    Array.init (n + 1) (fun i ->
        let v = Array.copy x0 in
        if i > 0 then begin
          let j = i - 1 in
          let step =
            if v.(j) = 0.0 then initial_step else initial_step *. Float.abs v.(j)
          in
          v.(j) <- v.(j) +. step
        end;
        v)
  in
  let values = Array.map f vertices in
  let order () =
    let idx = Array.init (n + 1) (fun i -> i) in
    Array.sort (fun i j -> compare values.(i) values.(j)) idx;
    let vs = Array.map (fun i -> vertices.(i)) idx in
    let fs = Array.map (fun i -> values.(i)) idx in
    Array.blit vs 0 vertices 0 (n + 1);
    Array.blit fs 0 values 0 (n + 1)
  in
  let centroid () =
    let c = Array.make n 0.0 in
    for i = 0 to n - 1 do
      (* centroid of all vertices except the worst *)
      for j = 0 to n - 1 do
        c.(j) <- c.(j) +. (vertices.(i).(j) /. float_of_int n)
      done
    done;
    c
  in
  let combine c v t = Array.init n (fun j -> c.(j) +. (t *. (v.(j) -. c.(j)))) in
  let iter = ref 0 in
  order ();
  while
    !iter < max_iter
    && Float.abs (values.(n) -. values.(0))
       > tol *. (Float.abs values.(0) +. Float.abs values.(n) +. 1e-30)
  do
    incr iter;
    let c = centroid () in
    let xr = combine c vertices.(n) (-.alpha) in
    let fr = f xr in
    if fr < values.(0) then begin
      (* try expansion *)
      let xe = combine c vertices.(n) (-.gamma) in
      let fe = f xe in
      if fe < fr then begin
        vertices.(n) <- xe;
        values.(n) <- fe
      end
      else begin
        vertices.(n) <- xr;
        values.(n) <- fr
      end
    end
    else if fr < values.(n - 1) then begin
      vertices.(n) <- xr;
      values.(n) <- fr
    end
    else begin
      (* contraction *)
      let xc = combine c vertices.(n) rho in
      let fc = f xc in
      if fc < values.(n) then begin
        vertices.(n) <- xc;
        values.(n) <- fc
      end
      else
        (* shrink towards the best vertex *)
        for i = 1 to n do
          vertices.(i) <-
            Array.init n (fun j ->
                vertices.(0).(j) +. (sigma *. (vertices.(i).(j) -. vertices.(0).(j))));
          values.(i) <- f vertices.(i)
        done
    end;
    order ()
  done;
  (Array.copy vertices.(0), values.(0))
