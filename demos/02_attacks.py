"""The attack families and their contracts.

Every attack returns points inside the epsilon-ball intersected with the
data box, whatever else it does. PGD takes signed gradient steps with
projection, BIM is PGD without the random start, MIM adds a momentum
accumulator, and SPSA estimates gradients from random probes so it never
touches the model's internals. Each untargeted attack ascends the
cross-entropy against the true label; the targeted protocols descend it
toward a chosen class.

Run: python3 demos/02_attacks.py
"""
import numpy as np

from advens import nn
from advens.attacks import AttackSpec, multi_targeted, run_attack, targeted
from advens.data import gen_blobs


def fit_quick(ds, seed=0):
    model = nn.init_model(ds.dim, [16], ds.num_classes, seed=seed)
    state = nn.adam_init(model, lr=0.05)
    for _ in range(300):
        _, grads = nn.backward(model, ds.inputs, lambda p: nn.ce_values_and_prob_grad(p, ds.labels))
        model, state = nn.adam_step(model, grads, state)
    return model


ds = gen_blobs(seed=4, n_per_class=60, num_classes=3, dim=2, separation=3.0)
model = fit_quick(ds)
x, y = ds.inputs, ds.labels
clean_acc = (nn.predict(model, x) == y).mean() * 100
print(f"clean accuracy: {clean_acc:.1f}, mean CE {nn.cross_entropy(nn.forward(model, x), y):.3f}\n")

EPS = 0.08
specs = {
    "pgd": AttackSpec(family="pgd", steps=20, epsilon=EPS, eta=EPS / 4, seed=0),
    "bim": AttackSpec(family="bim", steps=20, epsilon=EPS, eta=EPS / 4),
    "mim": AttackSpec(family="mim", steps=20, epsilon=EPS, eta=EPS / 4),
    "spsa": AttackSpec(family="spsa", steps=10, epsilon=EPS, eta=EPS / 4,
                       spsa_samples=64, seed=0),
}

print(f"{'family':6} {'success%':>9} {'max |dx|':>9} {'queries':>8} {'mean CE':>8}")
for name, spec in specs.items():
    res = run_attack(model, x, y, spec)
    ball = np.abs(res.adversarial - x).max()
    ce = nn.cross_entropy(nn.forward(model, res.adversarial), y)
    print(f"{name:6} {res.success_mask.mean() * 100:9.1f} {ball:9.4f} {res.queries:8d} {ce:8.3f}")
print(f"\nevery max |dx| stays within epsilon = {EPS}")

# success can only grow with the budget
print("\npgd success rate as the budget grows:")
for eps in (0.0, 0.02, 0.04, 0.08):
    spec = AttackSpec(family="pgd", steps=20, epsilon=eps, eta=max(eps / 4, 1e-3),
                      random_start=False, seed=0)
    rate = run_attack(model, x, y, spec).success_mask.mean() * 100
    print(f"  eps={eps:4.2f}  success {rate:5.1f}")

# targeted: success means the prediction is exactly the chosen class;
# multi-targeted runs one targeted attack per wrong class and keeps the
# first hit, so it succeeds wherever any of them does
pgd = specs["pgd"]
toward = (y + 1) % ds.num_classes
hit = targeted(model, x, toward, pgd).success_mask.mean() * 100
multi = multi_targeted(model, x, y, pgd)
print(f"\ntargeted toward the next class: success {hit:5.1f}")
print(f"multi-targeted, every wrong class: success {multi.success_mask.mean() * 100:5.1f} in {multi.queries} queries")
