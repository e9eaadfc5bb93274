"""Tour of the autodiff core: tensors, backward passes, and AdamW.

Run:  python3 demos/01_tensors_and_gradients.py
"""
import numpy as np

from rsvp import autodiff as ad
from rsvp.autodiff import Tensor
from rsvp.optim import Parameter, adamw_step

print("== tensors and reverse-mode gradients (float64 inside the with block) ==")
with ad.precision("float64"):
    w = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    x = Tensor(np.array([0.5, -1.0, 2.0]))
    loss = ad.tsum(ad.tanh(ad.mul(w, x)))
    loss.backward()
    print(f"loss = sum(tanh(w*x)) = {loss.item():.6f}")
    print(f"dloss/dw             = {w.grad}")

    # spot-check against central finite differences
    h = 1e-6
    fd = np.zeros(3)
    for i in range(3):
        wp, wm = w.data.copy(), w.data.copy()
        wp[i] += h
        wm[i] -= h
        fd[i] = (np.tanh(wp * x.data).sum() - np.tanh(wm * x.data).sum()) / (2 * h)
    print(f"finite differences   = {fd}")
    print(f"max abs deviation    = {np.abs(fd - w.grad).max():.2e}\n")

print("== gradients accumulate until dropped (a Parameter is a Tensor) ==")
p = Parameter("demo", np.ones(4))
ad.tsum(p).backward()
ad.tsum(p).backward()
print(f"after two backward passes:  grad = {p.grad}")
p.grad = None  # what the training loop does after each AdamW update
ad.tsum(p).backward()
print(f"after dropping, a backward: grad = {p.grad}\n")

print("== backward frees the graph it walks, so it runs once per graph ==")
loss = ad.tsum(ad.mul(p, p))
loss.backward()
try:
    loss.backward()
except RuntimeError as e:
    print(f"second backward on the same loss: RuntimeError: {e}")
else:
    raise SystemExit("a second backward through a used graph did not raise")
print(f"the loss value is kept: {loss.item()}\n")

print("== one AdamW step ==")
p = Parameter("w", np.array([1.0]))
p.grad = np.array([1.0])
adamw_step([p], lr=2e-5)
print(f"w: 1.0 -> {p.data[0]:.7f}  (first bias-corrected step moves by ~lr)")

print("\n== stable softmax and cosine similarity ==")
big = ad.softmax(Tensor(np.array([1000.0, 0.0])))
print(f"softmax([1000, 0]) = {big.data}  (no overflow)")
a, b = Tensor([2.0, 2.0]), Tensor([1.0, 1.0])
print(f"cosine((2,2), (1,1)) = {ad.cosine_similarity(a, b).item():.6f}  (scale invariant)")
