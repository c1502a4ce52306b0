(* Order statistics and a least-squares slope. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an already sorted array. *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then Float.nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile (sorted a) 0.5

let mean a =
  if Array.length a = 0 then 0.
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

(* Slope of the least-squares line through (xs, ys). *)
let slope xs ys =
  let n = float_of_int (Array.length xs) in
  if n < 2. then 0.
  else
    let mx = mean xs and my = mean ys in
    let sxy = ref 0. and sxx = ref 0. in
    Array.iteri
      (fun i x ->
        sxy := !sxy +. ((x -. mx) *. (ys.(i) -. my));
        sxx := !sxx +. ((x -. mx) *. (x -. mx)))
      xs;
    if !sxx = 0. then 0. else !sxy /. !sxx
