type t = {
  act : float array;
  heap : int array;        (* heap of variables *)
  pos : int array;         (* position in heap, -1 when absent *)
  mutable size : int;
}

let create n =
  { act = Array.make n 0.;
    heap = Array.init n Fun.id;
    pos = Array.init n Fun.id;
    size = n }

let activity t v = t.act.(v)
let mem t v = t.pos.(v) >= 0

let swap t i j =
  let a = t.heap.(i) and b = t.heap.(j) in
  t.heap.(i) <- b;
  t.heap.(j) <- a;
  t.pos.(b) <- i;
  t.pos.(a) <- j

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.act.(t.heap.(i)) > t.act.(t.heap.(parent)) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let largest = ref i in
  if l < t.size && t.act.(t.heap.(l)) > t.act.(t.heap.(!largest)) then
    largest := l;
  if r < t.size && t.act.(t.heap.(r)) > t.act.(t.heap.(!largest)) then
    largest := r;
  if !largest <> i then begin
    swap t i !largest;
    sift_down t !largest
  end

let bump t v amount =
  t.act.(v) <- t.act.(v) +. amount;
  if t.pos.(v) >= 0 then sift_up t t.pos.(v)

let rescale t factor =
  Array.iteri (fun v a -> t.act.(v) <- a *. factor) t.act

let pop_max t =
  if t.size = 0 then None
  else begin
    let v = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      let last = t.heap.(t.size) in
      t.heap.(0) <- last;
      t.pos.(last) <- 0
    end;
    t.pos.(v) <- -1;
    if t.size > 0 then sift_down t 0;
    Some v
  end

let push t v =
  if t.pos.(v) < 0 then begin
    t.heap.(t.size) <- v;
    t.pos.(v) <- t.size;
    t.size <- t.size + 1;
    sift_up t t.pos.(v)
  end
