"""Heat flow on differential forms.

Line integrals of a form along the diffusion, the 1-form semigroup on the
circle (harmonic forms are fixed points, eigenforms decay), and the 2-form
semigroup on the sphere where the volume form is preserved.
"""

import numpy as np

import semigrad as sg
from semigrad.forms import (angle_form_s1, line_integral_step, one_form_semigroup,
                            q_form_semigroup, volume_form_s2)

sc = sg.get_scenario("circle")
circle = sc.make()
grid = sg.TimeGrid(1.0, 800)

# pathwise sanity: the line integral of an exact form telescopes; both line
# integrals are running sums along one path
noise = sg.generate_noise(grid, 21, 0, 2)
forms = (sc.forms["exact:sin"], angle_form_s1())
states, _, _, _, (line, winding) = sg.integrate_block(
    circle, np.array([[1.0, 0.0]]), grid, noise[:, None],
    sums=[line_integral_step(form, grid, ()) for form in forms])
jump = states[0, -1, 1] - states[0, 0, 1]
print(f"line integral of d(sin) vs sin jump: {line[0]:.5f} vs {jump:.5f}")
print(f"winding angle of one path: {winding[0]:+.4f} rad")

budget = dict(n_paths=30_000, seed=23)
r = one_form_semigroup(circle, angle_form_s1(), grid, sc.x0, sc.v0, **budget)
print(f"\nP_t dtheta (harmonic, fixed point): {r.mean:.5f} +/- {r.std_error:.5f}"
      f"  want 1.0")
r = one_form_semigroup(circle, sc.forms["exact:sin"], grid, sc.x0, sc.v0, **budget)
print(f"P_t d(sin) (eigenform)            : {r.mean:.5f} +/- {r.std_error:.5f}"
      f"  want {np.exp(-0.5):.5f}")

ss = sg.get_scenario("sphere3")
sphere = ss.make()
g2 = sg.TimeGrid(0.5, 400)
r = q_form_semigroup(sphere, volume_form_s2(), g2, ss.x0, (ss.u0, ss.v0), **budget)
print(f"P_t vol on S^2 (harmonic 2-form)  : {r.mean:.5f} +/- {r.std_error:.5f}"
      f"  want 1.0")
