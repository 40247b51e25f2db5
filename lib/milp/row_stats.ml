type t = {
  mutable props : int array;
  mutable confl : int array;
  mutable bind : int array;
  mutable len : int; (* max bumped index + 1 *)
}

let create () =
  { props = [||]; confl = [||]; bind = [||]; len = 0 }

let grow a n =
  let cap = max n (max 16 (2 * Array.length a)) in
  let a' = Array.make cap 0 in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure t i =
  if i >= Array.length t.props then begin
    t.props <- grow t.props (i + 1);
    t.confl <- grow t.confl (i + 1);
    t.bind <- grow t.bind (i + 1)
  end;
  if i >= t.len then t.len <- i + 1

let bump_propagation t i =
  if i >= 0 then begin
    ensure t i;
    t.props.(i) <- t.props.(i) + 1
  end

let bump_conflict t i =
  if i >= 0 then begin
    ensure t i;
    t.confl.(i) <- t.confl.(i) + 1
  end

let bump_binding t i =
  if i >= 0 then begin
    ensure t i;
    t.bind.(i) <- t.bind.(i) + 1
  end

let rows t = t.len
let get a i = if i >= 0 && i < Array.length a then a.(i) else 0
let propagations t i = get t.props i
let conflicts t i = get t.confl i
let binding t i = get t.bind i
let activity t i = propagations t i + conflicts t i + binding t i

let total a len =
  let s = ref 0 in
  for i = 0 to min len (Array.length a) - 1 do
    s := !s + a.(i)
  done;
  !s

let total_propagations t = total t.props t.len
let total_conflicts t = total t.confl t.len
let total_binding t = total t.bind t.len
