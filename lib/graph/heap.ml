(* Keys and values live in two parallel arrays: the keys in a flat
   (unboxed) float array, the int values beside them, so a push stores
   no per-entry record and no store into either array is a pointer
   store.  Sifts move a hole instead of swapping, but make
   exactly the comparisons of the swap-based heap this replaces (the
   element at the hole is always the one being sifted), so entries with
   equal keys still pop in the same order. *)

type t = {
  mutable keys : float array;
  mutable values : int array;
  mutable len : int;
}

let create () = { keys = [||]; values = [||]; len = 0 }

let is_empty h = h.len = 0

let size h = h.len

let clear h = h.len <- 0

let grow h =
  let cap = Array.length h.keys in
  if h.len = cap then begin
    let ncap = max 16 (2 * cap) in
    let keys = Array.make ncap 0.0 in
    let values = Array.make ncap 0 in
    Array.blit h.keys 0 keys 0 h.len;
    Array.blit h.values 0 values 0 h.len;
    h.keys <- keys;
    h.values <- values
  end

let push h key value =
  grow h;
  let keys = h.keys and values = h.values in
  (* Sift up. *)
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if keys.(parent) > key then begin
      keys.(!i) <- keys.(parent);
      values.(!i) <- values.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(!i) <- key;
  values.(!i) <- value

let min_value h =
  if h.len = 0 then invalid_arg "Heap.min_value: empty heap";
  h.values.(0)

let remove_min h =
  if h.len = 0 then invalid_arg "Heap.remove_min: empty heap";
  h.len <- h.len - 1;
  let len = h.len in
  if len > 0 then begin
    let keys = h.keys and values = h.values in
    let key = keys.(len) and value = values.(len) in
    (* Sift down. *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let smallest = if l < len && keys.(l) < key then l else !i in
      let least = if smallest = !i then key else keys.(smallest) in
      let smallest = if r < len && keys.(r) < least then r else smallest in
      if smallest <> !i then begin
        keys.(!i) <- keys.(smallest);
        values.(!i) <- values.(smallest);
        i := smallest
      end
      else continue := false
    done;
    keys.(!i) <- key;
    values.(!i) <- value
  end

let pop h =
  if h.len = 0 then None
  else begin
    let top = (h.keys.(0), h.values.(0)) in
    remove_min h;
    Some top
  end
