(* Consistent hashing: replicas own [vnodes] points each on a ring of
   hashes; a key belongs to the owner of the first point clockwise from
   the key's own hash. Digest (MD5) keeps placement deterministic across
   processes — no Hashtbl.hash, whose layout is not a contract. *)

type t = {
  replicas : int list; (* ascending *)
  vnodes : int;
  (* the points, sorted by (hash, replica), as parallel arrays *)
  prefixes : int array; (* top 62 bits of the hash *)
  hashes : string array; (* the hash as 16 hex digits: the tie-break *)
  owners : int array; (* the replica owning the point *)
  walks : int array array;
      (* start point -> the distinct replicas clockwise from it, [||]
         until first asked for; filled in by [walk] *)
}

(* A hash is the first 8 digest bytes: as 16 hex digits they compare
   lexicographically like the integer they encode, and their top 62
   bits compare the same way as a non-negative int — so ring order can
   compare ints and fall back to the hex string only when those bits
   tie. *)
let hex d = String.sub (Digest.to_hex d) 0 16

let prefix d = Int64.to_int (Int64.shift_right_logical (String.get_int64_be d 0) 2)

let create ?(vnodes = 64) ~replicas () =
  if replicas = [] then invalid_arg "Hash_ring.create: no replicas";
  if vnodes < 1 then invalid_arg "Hash_ring.create: vnodes < 1";
  let replicas = List.sort_uniq compare replicas in
  let points =
    List.concat_map
      (fun r ->
        List.init vnodes (fun v ->
            let d = Digest.string (Printf.sprintf "replica-%d#%d" r v) in
            (hex d, r, prefix d)))
      replicas
    |> Array.of_list
  in
  Array.sort compare points;
  { replicas; vnodes;
    prefixes = Array.map (fun (_, _, p) -> p) points;
    hashes = Array.map (fun (h, _, _) -> h) points;
    owners = Array.map (fun (_, r, _) -> r) points;
    walks = Array.make (Array.length points) [||] }

let replicas t = t.replicas

let vnodes t = t.vnodes

(* Elasticity: membership changes rebuild the ring from the new replica
   set. Point hashes depend only on (replica, vnode), so the rebuilt
   ring is bit-identical to [create] over the same set — and minimal
   movement is structural: a key changes owner iff the first point
   clockwise from it belongs to the joining (resp. leaving) replica, so
   exactly the keys on that replica's arcs move. *)
let add_replica t r =
  if List.mem r t.replicas then
    invalid_arg "Hash_ring.add_replica: replica already on the ring";
  create ~vnodes:t.vnodes ~replicas:(r :: t.replicas) ()

let remove_replica t r =
  if not (List.mem r t.replicas) then
    invalid_arg "Hash_ring.remove_replica: replica not on the ring";
  match List.filter (fun x -> x <> r) t.replicas with
  | [] -> invalid_arg "Hash_ring.remove_replica: cannot empty the ring"
  | rest -> create ~vnodes:t.vnodes ~replicas:rest ()

(* Index of the first point with hash >= the key's, wrapping to 0. *)
let locate t key =
  let d = Digest.string key in
  let p = prefix d in
  let n = Array.length t.prefixes in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let q = t.prefixes.(mid) in
    if q < p || (q = p && t.hashes.(mid) < hex d) then lo := mid + 1
    else hi := mid
  done;
  if !lo = n then 0 else !lo

let shard t key = t.owners.(locate t key)

(* The failover walk from point [start]: each replica once, in ring
   order. Every replica owns a point, so the scan ends within one lap.
   Computed on first use and kept in the ring. *)
let walk t start =
  match t.walks.(start) with
  | [||] ->
    let n = Array.length t.owners in
    let k = List.length t.replicas in
    let w = Array.make k 0 in
    let got = ref 0 and i = ref start in
    while !got < k do
      let r = t.owners.(!i) in
      let j = ref 0 in
      while !j < !got && w.(!j) <> r do incr j done;
      if !j = !got then begin
        w.(!got) <- r;
        incr got
      end;
      i := if !i + 1 = n then 0 else !i + 1
    done;
    t.walks.(start) <- w;
    w
  | w -> w

let successor t key i =
  if i < 0 then invalid_arg "Hash_ring.successor: negative index";
  let w = walk t (locate t key) in
  w.(i mod Array.length w)

let successors t key = Array.to_list (walk t (locate t key))

let spread t keys =
  let counts = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace counts r 0) t.replicas;
  List.iter
    (fun k ->
      let r = shard t k in
      Hashtbl.replace counts r (Hashtbl.find counts r + 1))
    keys;
  List.map (fun r -> (r, Hashtbl.find counts r)) t.replicas
