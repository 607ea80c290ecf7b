(* Small helpers shared by the three workloads: clocks, order
   statistics, allocation and heap probes, and the pinned program
   configuration. *)

module Json = Sjos_obs.Json
module Work = Sjos_obs.Work
module Column_store = Sjos_storage.Column_store

let now_ns = Sjos_obs.Clock.now_ns
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6
let s_since t0 = ms_since t0 /. 1e3

(* Linear-interpolated quantile of an unsorted sample (q in [0, 1]). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = int_of_float pos in
      let hi = min (lo + 1) (Array.length a - 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

(* The traced run traces the first two thirds of its measuring time and
   leaves the last third untraced, to compare against. *)
let trace_until ~t_start ~seconds =
  Int64.add t_start (Int64.of_float (seconds *. 2. /. 3. *. 1e9))

let alloc_mb f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. before) /. 1048576.0)

(* Peak major heap of this process, in MB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* ---------- pinned configuration ----------

   Every knob the program would otherwise read from the environment
   (SJOS_STORAGE, SJOS_DOMAINS, SJOS_PAGE_SIZE, SJOS_POOL_PAGES) is set
   explicitly here, so the ambient environment cannot change what runs. *)

let grid = 32
let cache_capacity = 256
let pool = Sjos_par.Pool.serial

let load ~storage path =
  Sjos_engine.Database.load_file ~grid ~cache_capacity ~storage path

let of_document ~storage doc =
  Sjos_engine.Database.of_document ~grid ~cache_capacity ~storage doc

let config_json ~storage =
  Json.Obj
    [
      ("storage", Column_store.config_to_json storage);
      ("domains", Json.Int (Sjos_par.Pool.size pool));
      ("grid", Json.Int grid);
      ("plan_cache_capacity", Json.Int cache_capacity);
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
    ]

(* ---------- I/O of generated inputs ---------- *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l; output_char oc '\n') lines;
  close_out oc

let file_mb path = float_of_int (Unix.stat path).Unix.st_size /. 1048576.0

(* ---------- results ---------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun m ->
         (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
       ms)

(* A deterministic layer count: its value on every operation it was
   read from, and whether they were all equal. *)
let count_json values =
  let repeats =
    match values with [] -> true | v :: rest -> List.for_all (( = ) v) rest
  in
  Json.Obj
    [
      ("value", match values with v :: _ -> Json.Int v | [] -> Json.Null);
      ("repeats_exactly", Json.Bool repeats);
      ("ops", Json.Int (List.length values));
    ]

(* Order-insensitive digest of a result set: the sum, modulo 2^64, of a
   splitmix64 hash of each tuple.  Two engines that emit the same set in
   different orders agree; no sort is needed. *)
let set_digest tuples =
  let mix h v =
    let z = Int64.add h (Int64.mul (Int64.of_int v) 0x9E3779B97F4A7C15L) in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)
  in
  Printf.sprintf "%016Lx"
    (Array.fold_left
       (fun acc tup -> Int64.add acc (Array.fold_left mix 0x2545F4914F6CDD1DL tup))
       0L tuples)
