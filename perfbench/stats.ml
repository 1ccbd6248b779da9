(* Order statistics for the benchmark's reports.

   Every timing is reported as its median with quartiles and the sample
   count.  A tail percentile is reported only when at least ten samples
   lie beyond it, and always together with the count it rests on. *)

(* [quantiles xs n] cuts [xs] into [n] equal groups and returns the
   [n - 1] cut points, interpolated exactly like Python's
   [statistics.quantiles(xs, n=n)] (the default "exclusive" method), so
   the numbers match the spread rule the benchmark is judged by. *)
let quantiles xs n =
  let data = Array.of_list xs in
  Array.sort compare data;
  let ld = Array.length data in
  if ld < 2 || n < 2 then invalid_arg "Stats.quantiles: need 2 samples";
  let m = ld + 1 in
  List.init (n - 1) (fun k ->
      let i = k + 1 in
      let j = max 1 (min (ld - 1) (i * m / n)) in
      let delta = (i * m) - (j * n) in
      ((data.(j - 1) *. float_of_int (n - delta)) +. (data.(j) *. float_of_int delta))
      /. float_of_int n)

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | [ x ] -> x
  | xs -> List.hd (quantiles xs 2)

(* Samples strictly beyond the [p]-th percentile of [n] samples. *)
let beyond ~n p = n - int_of_float (Float.ceil (float_of_int n *. p /. 100.))

(* The highest of p99.9, p99 and p90 with at least ten samples beyond it. *)
let tail_percentile n =
  List.find_opt (fun p -> beyond ~n p >= 10) [ 99.9; 99.; 90. ]

(* [percentile xs p] for p in (0, 100) with one decimal, on the same
   interpolation as {!quantiles}. *)
let percentile xs p =
  List.nth (quantiles xs 1000) (int_of_float (Float.round (p *. 10.)) - 1)

type summary = {
  n : int;
  p50 : float;
  q1 : float;
  q3 : float;
  tail : (float * float) option;  (** (percentile, value) *)
}

let summarize xs =
  let n = List.length xs in
  match xs with
  | [] -> invalid_arg "Stats.summarize: no samples"
  | [ x ] -> { n; p50 = x; q1 = x; q3 = x; tail = None }
  | _ -> (
      match quantiles xs 4 with
      | [ q1; p50; q3 ] ->
          {
            n;
            p50;
            q1;
            q3;
            tail =
              Option.map (fun p -> (p, percentile xs p)) (tail_percentile n);
          }
      | _ -> assert false)

let pp_summary ~unit s =
  let tail =
    match s.tail with
    | None -> ""
    | Some (p, v) -> Printf.sprintf ", p%g %.4g" p v
  in
  Printf.sprintf "%.4g %s [q1 %.4g, q3 %.4g] (n=%d%s)" s.p50 unit s.q1 s.q3
    s.n tail

let geomean = function
  | [] -> invalid_arg "Stats.geomean: no values"
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))
