(* What every bench suite shares: the environment knobs (parsed and
   validated once, at startup), the per-dataset document and database
   cache, the Table 2 exactness check, the perf-history append and the
   gate verdict.

   A suite returns a [report]: its named boolean gates, optionally the
   BENCH_*.json payload it writes (the harness appends the "shape"
   object: every gate, any advisory figures, and "pass") and the
   perf-history entries it appends under the suite's name.  [finish]
   writes both, prints one shape-check line and says whether every gate
   held; the driver exits 1 when one did not.

   Environment knobs:
     SJOS_BENCH_SCALE   data-size multiplier (positive float; each suite
                        has its own default)
     SJOS_BENCH_REPS    timed repetitions (positive integer; perf, par)
     SJOS_BENCH_FAST    paper suite: skip the x500 fold and Bechamel
     SJOS_RESULTS_DIR   perf-history directory (default results)
     SJOS_IO_PAPER      io suite: also run Mbench at paper scale *)

open Sjos_engine
module Json = Sjos_obs.Json
module Perf_history = Sjos_obs.Perf_history

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("bench: " ^ msg);
      exit 2)
    fmt

(* ---------- knobs ---------- *)

let positive_env name what parse =
  match Sys.getenv_opt name with
  | None -> None
  | Some s -> (
      match parse s with
      | Some v -> Some v
      | None -> die "%s=%S: expected a positive %s" name s what)

let scale_env =
  positive_env "SJOS_BENCH_SCALE" "number" (fun s ->
      match float_of_string_opt s with
      | Some f when Float.is_finite f && f > 0. -> Some f
      | _ -> None)

let reps_env =
  positive_env "SJOS_BENCH_REPS" "integer" (fun s ->
      match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None)

let scale ~default = Option.value scale_env ~default
let reps ~default = Option.value reps_env ~default
let fast = Sys.getenv_opt "SJOS_BENCH_FAST" <> None

let results_dir =
  match Sys.getenv_opt "SJOS_RESULTS_DIR" with
  | Some d when d <> "" -> d
  | _ -> "results"

let scaled ?(floor = 500) scale base =
  max floor (int_of_float (float_of_int base *. scale))

(* ---------- datasets ---------- *)

let memo table key build =
  match Hashtbl.find_opt table key with
  | Some v -> v
  | None ->
      let v = build () in
      Hashtbl.add table key v;
      v

let docs = Hashtbl.create 4
let dbs = Hashtbl.create 4

let doc ~size ds = memo docs (ds, size) (fun () -> Workload.generate ~size ds)

let db ~size ds =
  memo dbs (ds, size) (fun () -> Database.of_document (doc ~size ds))

let tuples_equal (a : Sjos_exec.Tuple.t array) b =
  Array.length a = Array.length b && Array.for_all2 Sjos_exec.Tuple.equal a b

(* ---------- Table 2 ---------- *)

let table2 = lazy (Experiment.table2 ())

let table2_exact () =
  List.map
    (fun (r : Experiment.table2_row) ->
      (r.Experiment.algo_name, r.Experiment.considered))
    (Lazy.force table2)
  = Experiment.table2_pinned

let table2_json () =
  Json.Obj
    (List.map
       (fun (r : Experiment.table2_row) ->
         (r.Experiment.algo_name, Json.Int r.Experiment.considered))
       (Lazy.force table2))

(* ---------- gates and reports ---------- *)

(* every counter non-negative and something actually executed *)
let work_ran w =
  List.for_all (fun (_, n) -> n >= 0) (Sjos_obs.Work.fields w)
  && Sjos_obs.Work.score w > 0

type report = {
  gates : (string * bool) list;
  file : string option;
  fields : (string * Json.t) list;
  shape_info : (string * Json.t) list;
  history : ((string * Json.t) list * Perf_history.entry list) option;
}

let report ?file ?(fields = []) ?(shape_info = []) ?history gates =
  { gates; file; fields; shape_info; history }

let finish ~suite r =
  let pass = List.for_all snd r.gates in
  Option.iter
    (fun file ->
      let shape =
        List.map (fun (name, ok) -> (name, Json.Bool ok)) r.gates
        @ r.shape_info
        @ [ ("pass", Json.Bool pass) ]
      in
      Sjos_obs.Report.write_file file
        (Json.Obj (r.fields @ [ ("shape", Json.Obj shape) ]));
      Printf.printf "wrote %s\n" file)
    r.file;
  Option.iter
    (fun (meta, entries) ->
      let datapoint =
        {
          Perf_history.bench = suite;
          timestamp = int_of_float (Unix.time ());
          meta;
          entries;
        }
      in
      Printf.printf "appended perf-history datapoint %s\n"
        (Perf_history.append ~dir:results_dir datapoint))
    r.history;
  Printf.printf "shape check (%s): %s: %s\n%!" suite
    (String.concat ", "
       (List.map
          (fun (name, ok) -> if ok then name else name ^ " FAILED")
          r.gates))
    (if pass then "PASS" else "FAIL");
  pass
