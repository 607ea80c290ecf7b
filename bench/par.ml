(* Parallel-vs-serial benchmark for the multicore query engine.

   Runs the full eight-query workload (Workload.run_all: databases
   built and warmed up front, queries fanned out across a domain pool,
   large joins sharded inside the pool) serially and on pools of 1, 2
   and 4 domains.

   The gate is fully deterministic and enforced on ANY host, 1-core CI
   runners included:

   - every parallel run must be bit-identical to the serial reference —
     same tuples, same order, same executor counters including
     skipped_items;
   - the Table 2 plan-space counters must come out exact
     (520/226/163/69/42/18);
   - the deterministic work counters must be bit-identical across pool
     sizes — sharding a join across domains must neither duplicate nor
     drop a single unit of work;
   - when joins shard (pools >= 2), the row-balance ratio
     (largest shard x shard count / total rows) must stay under 3.0 —
     a skewed cut would starve the pool even on a machine where
     wall-clock can't show it;
   - joins must actually shard at the bench's scale, or the balance
     gate above would check nothing.

   Wall-clock speedups are still measured and recorded as advisory
   data; no gate reads them.  Appends a "par" perf-history datapoint
   for `sjos perf-gate par`.  Scale defaults to 0.5 (at 0.2 no join
   shards), repetitions to 5.

   Run with: dune exec bench/main.exe par *)

open Sjos_engine
open Sjos_exec
module Pool = Sjos_par.Pool
module Work = Sjos_obs.Work
module Registry = Sjos_obs.Registry

let scale = Harness.scale ~default:0.5
let reps = Harness.reps ~default:5

let db_for ds =
  Harness.db ~size:(Harness.scaled scale (Workload.default_size ds)) ds

(* Cold options: every timed run re-optimizes and re-executes the same
   work, and plans_considered stays comparable across runs. *)
let opts = Query_opts.make ~use_cache:false ()

let run_workload pool = Workload.run_all ~opts ~pool db_for

let workload_identical reference run =
  Array.length reference = Array.length run
  && Array.for_all2
       (fun ((q : Workload.query), (a : Database.query_run))
            ((q' : Workload.query), (b : Database.query_run)) ->
         String.equal q.Workload.id q'.Workload.id
         && Harness.tuples_equal a.Database.exec.Executor.tuples
              b.Database.exec.Executor.tuples
         (* every counter, items_skipped included: parallel shards must
            reproduce the serial accounting exactly, not just the result
            set *)
         && Work.equal a.Database.exec.Executor.work
              b.Database.exec.Executor.work)
       reference run

let time_best pool =
  let best = ref infinity in
  let last = ref [||] in
  for _ = 1 to reps do
    Gc.compact ();
    let t0 = Sjos_obs.Clock.now_ns () in
    last := run_workload pool;
    let s = Sjos_obs.Clock.elapsed_seconds ~since:t0 in
    if s < !best then best := s
  done;
  (!best, !last)

(* One dedicated accounting run per pool size, outside the timing loop:
   the scoped accumulator captures the workload's deterministic work
   (every shard's delta absorbed at the pool barrier), and the registry
   shard-balance counters are snapshotted around the run.  Allocation is
   measured only for the serial run — Gc.allocated_bytes is per-domain,
   so a parallel figure would depend on scheduling. *)
type accounting = {
  work : Work.t;
  sharded_joins : int;
  shard_rows_total : int;
  shard_rows_max_weighted : int;
  allocated : float;
}

let account pool ~measure_alloc =
  Registry.set_enabled true;
  let joins0 = Registry.counter_value (Registry.counter "par.sharded_joins") in
  let total0 =
    Registry.counter_value (Registry.counter "par.shard_rows_total")
  in
  let maxw0 =
    Registry.counter_value (Registry.counter "par.shard_rows_max_weighted")
  in
  let bytes0 = if measure_alloc then Gc.allocated_bytes () else 0.0 in
  let work, outcome = Work.scoped (fun () -> run_workload pool) in
  let allocated =
    if measure_alloc then Gc.allocated_bytes () -. bytes0 else 0.0
  in
  let joins1 = Registry.counter_value (Registry.counter "par.sharded_joins") in
  let total1 =
    Registry.counter_value (Registry.counter "par.shard_rows_total")
  in
  let maxw1 =
    Registry.counter_value (Registry.counter "par.shard_rows_max_weighted")
  in
  Registry.set_enabled false;
  (match outcome with Ok _ -> () | Error e -> raise e);
  {
    work;
    sharded_joins = joins1 - joins0;
    shard_rows_total = total1 - total0;
    shard_rows_max_weighted = maxw1 - maxw0;
    allocated;
  }

let balance_ratio a =
  if a.shard_rows_total = 0 then 1.0
  else float_of_int a.shard_rows_max_weighted /. float_of_int a.shard_rows_total

type point = {
  domains : int;
  seconds : float;
  speedup : float;
  identical : bool;
  acct : accounting;
}

let run () =
  let cores = Domain.recommended_domain_count () in
  Printf.printf
    "parallel workload engine: serial vs pooled (scale %.2f, best of %d, %d \
     cores)\n"
    scale reps cores;
  (* correctness first: the serial reference every pool size must match *)
  let serial_seconds, reference = time_best Pool.serial in
  let serial_acct = account Pool.serial ~measure_alloc:true in
  let points =
    List.map
      (fun domains ->
        let pool = Pool.create ~domains () in
        let seconds, run = time_best pool in
        let acct = account pool ~measure_alloc:false in
        Pool.shutdown pool;
        {
          domains;
          seconds;
          speedup = serial_seconds /. seconds;
          identical = workload_identical reference run;
          acct;
        })
      [ 1; 2; 4 ]
  in
  Printf.printf "%-8s %12s %9s %10s %12s %9s\n" "domains" "seconds" "speedup"
    "identical" "work-score" "balance";
  Printf.printf "%-8s %12.6f %9s %10s %12d %9s\n" "serial" serial_seconds
    "1.00x" "-"
    (Work.score serial_acct.work)
    "-";
  List.iter
    (fun p ->
      Printf.printf "%-8d %12.6f %8.2fx %10s %12d %8.2f\n" p.domains p.seconds
        p.speedup
        (if p.identical then "yes" else "NO — MISMATCH")
        (Work.score p.acct.work) (balance_ratio p.acct))
    points;
  (* Table 2 must come out exact on the parallel build: the paper's
     plan-space counts are pure optimizer state and any drift means the
     engine's bookkeeping was perturbed. *)
  let counters_exact = Harness.table2_exact () in
  let all_identical = List.for_all (fun p -> p.identical) points in
  (* zero duplicated (and zero dropped) work: the deterministic counters
     must agree bit-for-bit between the serial run and every pool size *)
  let work_identical_across_domains =
    List.for_all (fun p -> Work.equal serial_acct.work p.acct.work) points
  in
  (* sharded joins must cut within 3x of a perfectly even row split *)
  let max_balance =
    List.fold_left
      (fun acc p ->
        if p.acct.sharded_joins > 0 then max acc (balance_ratio p.acct)
        else acc)
      1.0 points
  in
  let sharding_active =
    List.exists (fun p -> p.acct.sharded_joins > 0) points
  in
  Printf.printf
    "work score identical across serial/1/2/4: %s; sharded joins max \
     balance %.2f%s\n"
    (if work_identical_across_domains then "yes" else "NO")
    max_balance
    (if sharding_active then "" else " (no join sharded at this scale)");
  let open Sjos_obs.Json in
  let acct_to_json a =
    Obj
      [
        ("work", Work.to_json a.work);
        ("sharded_joins", Int a.sharded_joins);
        ("shard_rows_total", Int a.shard_rows_total);
        ("shard_rows_max_weighted", Int a.shard_rows_max_weighted);
        ("balance", Float (balance_ratio a));
      ]
  in
  (* perf-history datapoint: the serial entry carries the allocation
     figure; per-pool entries carry work only (scores must all agree,
     which the store's own gate then re-checks across runs) *)
  let entries =
    {
      Sjos_obs.Perf_history.entry_id = "workload@serial";
      work = serial_acct.work;
      allocated_bytes = serial_acct.allocated;
      seconds = serial_seconds;
    }
    :: List.map
         (fun p ->
           {
             Sjos_obs.Perf_history.entry_id =
               Printf.sprintf "workload@%d" p.domains;
             work = p.acct.work;
             allocated_bytes = 0.0;
             seconds = p.seconds;
           })
         points
  in
  let meta =
    [ ("scale", Float scale); ("reps", Int reps); ("cores", Int cores) ]
  in
  Harness.report ~file:"BENCH_PAR.json"
    ~fields:
      (meta
      @ [
          ("serial_seconds", Float serial_seconds);
          ("serial", acct_to_json serial_acct);
          ( "per_domain",
            List
              (List.map
                 (fun p ->
                   Obj
                     [
                       ("domains", Int p.domains);
                       ("seconds", Float p.seconds);
                       ("speedup", Float p.speedup);
                       ("identical", Bool p.identical);
                       ("accounting", acct_to_json p.acct);
                     ])
                 points) );
          ("table2_considered", Harness.table2_json ());
        ])
    ~shape_info:[ ("max_balance", Float max_balance) ]
    ~history:(meta, entries)
    [
      ("identical_outputs", all_identical);
      ("counters_exact", counters_exact);
      ("work_identical_across_domains", work_identical_across_domains);
      ("sharding_active", sharding_active);
      ("shard_balanced", max_balance <= 3.0);
      ( "nonempty_work",
        points <> []
        && List.for_all
             (fun a -> Harness.work_ran a.work)
             (serial_acct :: List.map (fun p -> p.acct) points) );
    ]
